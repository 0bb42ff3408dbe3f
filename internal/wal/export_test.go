package wal

// EndLSN returns the next append position (includes non-durable records).
func (w *Writer) EndLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}
