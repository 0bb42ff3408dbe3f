package darray

import (
	"fmt"
	"sync"

	"verticadr/internal/colstore"
	"verticadr/internal/dr"
	"verticadr/internal/parallel"
)

// DFrame is a distributed data frame: partitions are typed column batches
// (colstore.Batch). Declared with only a partition count (Table 1:
// dframe(npartitions=)); partitions may have different row counts but must
// agree on schema.
type DFrame struct {
	c    *dr.Cluster
	name string
	mu   sync.RWMutex
	part []partMeta
	sch  colstore.Schema // established by the first fill
}

// NewFrame declares a distributed data frame with empty partitions.
func NewFrame(c *dr.Cluster, npartitions int) (*DFrame, error) {
	if npartitions <= 0 {
		return nil, fmt.Errorf("darray: npartitions must be >= 1")
	}
	f := &DFrame{c: c, name: c.GenName("dframe"), part: make([]partMeta, npartitions)}
	for i := range f.part {
		f.part[i].worker = i % c.NumWorkers()
		f.part[i].key = fmt.Sprintf("%s/p%d", f.name, i)
	}
	return f, nil
}

// Name returns the frame's symbol-table name.
func (f *DFrame) Name() string { return f.name }

// NPartitions returns the partition count.
func (f *DFrame) NPartitions() int { return len(f.part) }

// WorkerOf returns the worker holding partition i.
func (f *DFrame) WorkerOf(i int) int { return f.part[i].worker }

// SetWorker reassigns an unfilled partition.
func (f *DFrame) SetWorker(i, worker int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.part) {
		return fmt.Errorf("darray: no partition %d", i)
	}
	if f.part[i].filled {
		return fmt.Errorf("darray: partition %d already filled", i)
	}
	if worker < 0 || worker >= f.c.NumWorkers() {
		return fmt.Errorf("darray: no worker %d", worker)
	}
	f.part[i].worker = worker
	return nil
}

// Fill stores chunks, in order, as partition i; all chunks and partitions
// must share a schema (the data-frame conformity check).
//
// Fill takes ownership of the chunks: they become the partition's backing
// storage without a copy, so the caller must not modify, reuse or recycle
// them (or their column slices) afterwards. A vft transfer fills a partition
// with the batches its hub decoded the partition's messages into.
func (f *DFrame) Fill(i int, chunks ...*colstore.Batch) error {
	if len(chunks) == 0 {
		return fmt.Errorf("darray: partition %d filled with no chunks", i)
	}
	for _, b := range chunks {
		if err := b.Validate(); err != nil {
			return err
		}
		if !b.Schema.Equal(chunks[0].Schema) {
			return fmt.Errorf("darray: partition %d chunks differ in schema", i)
		}
	}
	f.mu.Lock()
	if i < 0 || i >= len(f.part) {
		f.mu.Unlock()
		return fmt.Errorf("darray: no partition %d", i)
	}
	if f.sch == nil {
		f.sch = chunks[0].Schema
	} else if !f.sch.Equal(chunks[0].Schema) {
		f.mu.Unlock()
		return fmt.Errorf("darray: partition %d schema differs from frame schema", i)
	}
	meta := &f.part[i]
	meta.rows, meta.cols, meta.filled = rowsOf(chunks), len(f.sch), true
	worker, key := meta.worker, meta.key
	f.mu.Unlock()

	w, err := f.c.Worker(worker)
	if err != nil {
		return err
	}
	w.Put(key, chunks)
	return nil
}

// Schema returns the frame schema (nil until the first fill).
func (f *DFrame) Schema() colstore.Schema {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sch
}

// PartitionSize returns (rows, cols) of partition i.
func (f *DFrame) PartitionSize(i int) (int, int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if i < 0 || i >= len(f.part) {
		return 0, 0, fmt.Errorf("darray: no partition %d", i)
	}
	return f.part[i].rows, f.part[i].cols, nil
}

// Rows returns the total row count.
func (f *DFrame) Rows() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, p := range f.part {
		n += p.rows
	}
	return n
}

// Part fetches partition i's batch: its one chunk, or else its chunks
// concatenated into a new batch.
func (f *DFrame) Part(i int) (*colstore.Batch, error) {
	chunks, err := f.chunks(i)
	if err != nil {
		return nil, err
	}
	if len(chunks) == 1 {
		return chunks[0], nil
	}
	out := colstore.NewBatchCap(chunks[0].Schema, rowsOf(chunks))
	for _, b := range chunks {
		if err := out.AppendBatch(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// chunks fetches partition i's chunks from its worker.
func (f *DFrame) chunks(i int) ([]*colstore.Batch, error) {
	f.mu.RLock()
	if i < 0 || i >= len(f.part) {
		f.mu.RUnlock()
		return nil, fmt.Errorf("darray: no partition %d", i)
	}
	meta := f.part[i]
	f.mu.RUnlock()
	if !meta.filled {
		return nil, fmt.Errorf("darray: partition %d not filled", i)
	}
	w, err := f.c.Worker(meta.worker)
	if err != nil {
		return nil, err
	}
	v, ok := w.Get(meta.key)
	if !ok {
		return nil, fmt.Errorf("darray: partition %d missing from worker %d", i, meta.worker)
	}
	return v.([]*colstore.Batch), nil
}

// rowsOf counts the rows of a partition's chunks.
func rowsOf(chunks []*colstore.Batch) int {
	n := 0
	for _, b := range chunks {
		n += b.Len()
	}
	return n
}

// AsDArray converts numeric columns (in schema order, or the named subset)
// into a co-located distributed array; this is the bridge db2darray uses to
// hand loaded frames to the math algorithms. The columns are checked once,
// before anything is filled; the partitions then convert concurrently.
func (f *DFrame) AsDArray(cols []string) (*DArray, error) {
	sch := f.Schema()
	if sch == nil {
		return nil, fmt.Errorf("darray: frame has no data")
	}
	if cols == nil {
		for _, c := range sch {
			cols = append(cols, c.Name)
		}
	}
	idx := make([]int, len(cols))
	for j, name := range cols {
		idx[j] = sch.ColIndex(name)
		if idx[j] < 0 {
			return nil, fmt.Errorf("darray: frame has no column %q", name)
		}
		if t := sch[idx[j]].Type; t != colstore.TypeFloat64 && t != colstore.TypeInt64 {
			return nil, fmt.Errorf("darray: column %q is %v, not numeric", name, t)
		}
	}
	a, err := New(f.c, f.NPartitions())
	if err != nil {
		return nil, err
	}
	for i := range f.part {
		if err := a.SetWorker(i, f.WorkerOf(i)); err != nil {
			return nil, err
		}
	}
	err = parallel.Default().ForEach(f.NPartitions(), func(i int) error {
		chunks, err := f.chunks(i)
		if err != nil {
			return err
		}
		m, at := NewMat(rowsOf(chunks), len(idx)), 0
		for _, b := range chunks {
			rowMajor(m, at, b, idx)
			at += b.Len()
		}
		return a.Fill(i, m)
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// rowMajor lays the numeric columns idx of b out in the row-major matrix m,
// from row at on. The sources are column-major, so a whole column at a time
// would touch every cache line of the matrix once per column; instead the
// rows go in tiles small enough that a tile of the matrix stays in cache
// while each column in turn is written into it.
func rowMajor(m *Mat, at int, b *colstore.Batch, idx []int) {
	stride := len(idx)
	tile := max(32, 4096/max(stride, 1)) // about 32 KiB of matrix
	for lo := 0; lo < b.Len(); lo += tile {
		hi := min(lo+tile, b.Len())
		for j, ci := range idx {
			dst := m.Data[(at+lo)*stride+j:]
			if col := b.Cols[ci]; col.Type == colstore.TypeFloat64 {
				for r, v := range col.Floats[lo:hi] {
					dst[r*stride] = v
				}
			} else {
				for r, v := range col.Ints[lo:hi] {
					dst[r*stride] = float64(v)
				}
			}
		}
	}
}

// DList is a distributed list: each partition holds an arbitrary []any
// (Table 1: dlist(npartitions=)).
type DList struct {
	c    *dr.Cluster
	name string
	mu   sync.RWMutex
	part []partMeta
}

// NewList declares a distributed list with empty partitions.
func NewList(c *dr.Cluster, npartitions int) (*DList, error) {
	if npartitions <= 0 {
		return nil, fmt.Errorf("darray: npartitions must be >= 1")
	}
	l := &DList{c: c, name: c.GenName("dlist"), part: make([]partMeta, npartitions)}
	for i := range l.part {
		l.part[i].worker = i % c.NumWorkers()
		l.part[i].key = fmt.Sprintf("%s/p%d", l.name, i)
	}
	return l, nil
}

// NPartitions returns the partition count.
func (l *DList) NPartitions() int { return len(l.part) }

// WorkerOf returns the worker holding partition i.
func (l *DList) WorkerOf(i int) int { return l.part[i].worker }

// Fill stores items as partition i.
func (l *DList) Fill(i int, items []any) error {
	l.mu.Lock()
	if i < 0 || i >= len(l.part) {
		l.mu.Unlock()
		return fmt.Errorf("darray: no partition %d", i)
	}
	meta := &l.part[i]
	meta.rows, meta.filled = len(items), true
	worker, key := meta.worker, meta.key
	l.mu.Unlock()
	w, err := l.c.Worker(worker)
	if err != nil {
		return err
	}
	w.Put(key, items)
	return nil
}

// PartitionSize returns the element count of partition i.
func (l *DList) PartitionSize(i int) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= len(l.part) {
		return 0, fmt.Errorf("darray: no partition %d", i)
	}
	return l.part[i].rows, nil
}

// Part fetches partition i.
func (l *DList) Part(i int) ([]any, error) {
	l.mu.RLock()
	if i < 0 || i >= len(l.part) {
		l.mu.RUnlock()
		return nil, fmt.Errorf("darray: no partition %d", i)
	}
	meta := l.part[i]
	l.mu.RUnlock()
	if !meta.filled {
		return nil, fmt.Errorf("darray: partition %d not filled", i)
	}
	w, err := l.c.Worker(meta.worker)
	if err != nil {
		return nil, err
	}
	v, ok := w.Get(meta.key)
	if !ok {
		return nil, fmt.Errorf("darray: partition %d missing from worker %d", i, meta.worker)
	}
	return v.([]any), nil
}

// Collect gathers all elements in partition order.
func (l *DList) Collect() ([]any, error) {
	var out []any
	for i := 0; i < l.NPartitions(); i++ {
		items, err := l.Part(i)
		if err != nil {
			return nil, err
		}
		out = append(out, items...)
	}
	return out, nil
}
