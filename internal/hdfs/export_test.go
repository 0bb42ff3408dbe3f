package hdfs

// UsedBytes reports per-datanode stored bytes (replication included).
func (fs *FS) UsedBytes() []int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return append([]int(nil), fs.used...)
}
