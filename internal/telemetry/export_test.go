package telemetry

// Dropped reports how many spans the ring buffer has evicted since the last
// Reset.
func (l *SpanLog) Dropped() int64 { return l.dropped.Load() }

// SetCapacity resizes the retention bound (minimum 1). Retained spans are
// kept up to the new capacity, newest first.
func (l *SpanLog) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	spans := l.snapshotLocked()
	if len(spans) > n {
		l.dropLocked(int64(len(spans) - n))
		spans = spans[len(spans)-n:]
	}
	l.capacity = n
	l.ring = make([]*Span, 0, n)
	l.ring = append(l.ring, spans...)
	l.head = 0
	l.size = len(spans)
}
