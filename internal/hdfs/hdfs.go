// Package hdfs is the distributed-filesystem comparator substrate of
// §7.3.2: files are split into line-aligned blocks, each block replicated
// across datanodes (default 3×, "HDFS is set to the default 3-way data
// replication"), with locality-aware reads so a compute framework (the
// Spark substitute) can schedule tasks on nodes holding local replicas.
package hdfs

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// Config configures the filesystem.
type Config struct {
	DataNodes   int
	BlockSize   int // bytes per block before line alignment (default 1 MiB)
	Replication int // default 3
}

// BlockInfo describes one block of a file.
type BlockInfo struct {
	Index    int
	Size     int
	Replicas []int // datanodes holding this block
}

type file struct {
	blocks []BlockInfo
	data   [][]byte // block payloads, indexed by block
}

// FS is the filesystem: a namenode map plus per-datanode accounting.
type FS struct {
	cfg   Config
	mu    sync.RWMutex
	files map[string]*file
	next  int // round-robin placement cursor
	used  []int
}

// New creates a filesystem.
func New(cfg Config) (*FS, error) {
	if cfg.DataNodes <= 0 {
		return nil, fmt.Errorf("hdfs: need at least one datanode")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 1 << 20
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Replication > cfg.DataNodes {
		cfg.Replication = cfg.DataNodes
	}
	return &FS{cfg: cfg, files: make(map[string]*file), used: make([]int, cfg.DataNodes)}, nil
}

// DataNodes returns the node count.
func (fs *FS) DataNodes() int { return fs.cfg.DataNodes }

// WriteFile stores data, splitting into blocks at line boundaries at or
// after BlockSize so text records never straddle blocks.
func (fs *FS) WriteFile(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("hdfs: empty file name")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("hdfs: file %q already exists", name)
	}
	f := &file{}
	for off := 0; off < len(data); {
		end := off + fs.cfg.BlockSize
		if end >= len(data) {
			end = len(data)
		} else if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
			end += nl + 1
		} else {
			end = len(data)
		}
		blk := append([]byte(nil), data[off:end]...)
		replicas := make([]int, 0, fs.cfg.Replication)
		for i := 0; i < fs.cfg.Replication; i++ {
			node := (fs.next + i) % fs.cfg.DataNodes
			replicas = append(replicas, node)
			fs.used[node] += len(blk)
		}
		fs.next++
		f.blocks = append(f.blocks, BlockInfo{Index: len(f.blocks), Size: len(blk), Replicas: replicas})
		f.data = append(f.data, blk)
		off = end
	}
	fs.files[name] = f
	return nil
}

// ReadFile returns the whole file.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", name)
	}
	var out []byte
	for _, b := range f.data {
		out = append(out, b...)
	}
	return out, nil
}

// Blocks returns block metadata for scheduling.
func (fs *FS) Blocks(name string) ([]BlockInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", name)
	}
	return append([]BlockInfo(nil), f.blocks...), nil
}

// ReadBlock reads one block as seen from a node; local reports whether a
// local replica served it (locality accounting for the Spark scheduler).
func (fs *FS) ReadBlock(name string, index, fromNode int) (data []byte, local bool, err error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, false, fmt.Errorf("hdfs: file %q does not exist", name)
	}
	if index < 0 || index >= len(f.blocks) {
		return nil, false, fmt.Errorf("hdfs: block %d out of range for %q", index, name)
	}
	for _, r := range f.blocks[index].Replicas {
		if r == fromNode {
			local = true
			break
		}
	}
	return f.data[index], local, nil
}

// Delete removes a file.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("hdfs: file %q does not exist", name)
	}
	for i, b := range f.blocks {
		for _, r := range b.Replicas {
			fs.used[r] -= len(f.data[i])
		}
	}
	delete(fs.files, name)
	return nil
}

// List returns file names, sorted.
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
