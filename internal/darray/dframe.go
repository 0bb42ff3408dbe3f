package darray

import (
	"fmt"

	"verticadr/internal/colstore"
	"verticadr/internal/dr"
	"verticadr/internal/parallel"
)

// DFrame is a distributed data frame: partitions are typed column batches
// (colstore.Batch). Declared with only a partition count (Table 1:
// dframe(npartitions=)); partitions may have different row counts but must
// agree on schema.
type DFrame struct {
	parts[[]*colstore.Batch]
	sch colstore.Schema // established by the first fill, under mu
}

// NewFrame declares a distributed data frame with empty partitions.
func NewFrame(c *dr.Cluster, npartitions int) (*DFrame, error) {
	f := new(DFrame)
	if err := f.declare(c, "dframe", npartitions, nil); err != nil {
		return nil, err
	}
	return f, nil
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
	sch := chunks[0].Schema
	for _, b := range chunks {
		if err := b.Validate(); err != nil {
			return err
		}
		if !b.Schema.Equal(sch) {
			return fmt.Errorf("darray: partition %d chunks differ in schema", i)
		}
	}
	return f.fill(i, chunks, rowsOf(chunks), len(sch), func() error {
		if f.sch == nil {
			f.sch = sch
		} else if !f.sch.Equal(sch) {
			return fmt.Errorf("darray: partition %d schema differs from frame schema", i)
		}
		return nil
	})
}

// Schema returns the frame schema (nil until the first fill).
func (f *DFrame) Schema() colstore.Schema {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sch
}

// Part fetches partition i's batch: its one chunk, or else its chunks
// concatenated into a new batch.
func (f *DFrame) Part(i int) (*colstore.Batch, error) {
	chunks, err := f.parts.Part(i)
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
	a, err := newArray(f.c, f.NPartitions(), f)
	if err != nil {
		return nil, err
	}
	err = parallel.Default().ForEach(f.NPartitions(), func(i int) error {
		chunks, err := f.parts.Part(i)
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
type DList struct{ parts[[]any] }

// NewList declares a distributed list with empty partitions.
func NewList(c *dr.Cluster, npartitions int) (*DList, error) {
	l := new(DList)
	if err := l.declare(c, "dlist", npartitions, nil); err != nil {
		return nil, err
	}
	return l, nil
}

// Fill stores items as partition i.
func (l *DList) Fill(i int, items []any) error { return l.fill(i, items, len(items), 0, nil) }

// PartitionSize returns the element count of partition i.
func (l *DList) PartitionSize(i int) (int, error) {
	n, _, err := l.parts.PartitionSize(i)
	return n, err
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
