// Package darray implements the new Distributed R data structures of §4 and
// Table 1 of the paper: distributed arrays, data frames and lists declared
// with only a partition count (darray(npartitions=)), supporting *different
// partition sizes* that become known only when data arrives from Vertica.
// The master plays the role of the paper's "memory manager [that] tracks the
// location and meta-data of each partition": one partition table (parts,
// guarded by its lock) embedded in each D* type records every partition's
// worker, store key, shape and fill state, and moves payloads to and from
// the worker stores; each type adds only its own conformity check and views.
package darray

import (
	"context"
	"fmt"
	"slices"

	"verticadr/internal/dr"
)

// Mat is one float64 matrix partition, row-major.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMat allocates a zeroed rows×cols matrix partition.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// DArray is a distributed dense matrix partitioned by rows. Declared with
// only a partition count; partition shapes are recorded as data is filled in
// (possibly unevenly, Fig. 8). Adjacent partitions must agree on the column
// count (the conformity check of §4).
type DArray struct{ parts[*Mat] }

// New declares a distributed array with npartitions empty partitions. No
// worker memory is reserved: only master metadata is created (per §4).
func New(c *dr.Cluster, npartitions int) (*DArray, error) { return newArray(c, npartitions, nil) }

// NewLike declares an empty array co-located with like: the same partition
// count, each partition on the worker of like's (Zip's requirement).
func NewLike(like *DArray) (*DArray, error) { return newArray(like.c, like.NPartitions(), like) }

func newArray(c *dr.Cluster, npartitions int, like placement) (*DArray, error) {
	a := new(DArray)
	if err := a.declare(c, "darray", npartitions, like); err != nil {
		return nil, err
	}
	return a, nil
}

// Fill stores matrix m as partition i on its assigned worker, checking
// conformity: every filled partition must have the same column count.
func (a *DArray) Fill(i int, m *Mat) error {
	if m == nil || len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("darray: malformed matrix for partition %d", i)
	}
	return a.fill(i, m, m.Rows, m.Cols, func() error {
		for j, p := range a.part {
			if j != i && p.filled && p.cols != m.Cols {
				return fmt.Errorf("darray: partition %d has %d cols, conflicting with partition %d (%d cols)", i, m.Cols, j, p.cols)
			}
		}
		return nil
	})
}

// Filled reports whether every partition has data.
func (a *DArray) Filled() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, p := range a.part {
		if !p.filled {
			return false
		}
	}
	return true
}

// PartitionSizes returns all partition shapes (partitionsize(A) with i
// missing).
func (a *DArray) PartitionSizes() [][2]int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([][2]int, len(a.part))
	for i, p := range a.part {
		out[i] = [2]int{p.rows, p.cols}
	}
	return out
}

// Cols returns the column count (0 if nothing is filled yet).
func (a *DArray) Cols() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, p := range a.part {
		if p.filled {
			return p.cols
		}
	}
	return 0
}

// Clone returns a new array with the same number of partitions, the same
// per-partition row counts, and co-located partitions, with ncol columns
// (Table 1: clone(A, ncol=)). Partitions are allocated eagerly and zeroed.
func (a *DArray) Clone(ncol int) (*DArray, error) {
	if ncol <= 0 {
		return nil, fmt.Errorf("darray: clone ncol must be >= 1")
	}
	a.mu.RLock()
	metas := slices.Clone(a.part)
	a.mu.RUnlock()
	for i, p := range metas {
		if !p.filled {
			return nil, fmt.Errorf("darray: clone of array with unfilled partition %d", i)
		}
	}
	// Filled partitions cannot move, so NewLike places them as metas has.
	out, err := NewLike(a)
	if err != nil {
		return nil, err
	}
	for i, p := range metas {
		if err := out.Fill(i, NewMat(p.rows, ncol)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Foreach runs fn for every partition on its owning worker, in parallel
// (bounded by the worker executors). This is Distributed R's foreach over
// array partitions.
func (a *DArray) Foreach(fn func(part int, m *Mat) error) error {
	tasks := map[int][]dr.Task{}
	a.mu.RLock()
	for i, meta := range a.part {
		if !meta.filled {
			a.mu.RUnlock()
			return fmt.Errorf("darray: foreach over unfilled partition %d", i)
		}
		tasks[meta.worker] = append(tasks[meta.worker], func(w *dr.Worker) error {
			m, err := a.get(w, i, meta.key)
			if err != nil {
				return err
			}
			return fn(i, m)
		})
	}
	a.mu.RUnlock()
	// The fit loops that call Foreach carry no context; a dead or shut-down
	// worker still rejects its tasks.
	return a.c.RunAllCtx(context.TODO(), tasks)
}

// Zip runs fn for every partition pair (a[i], b[i]) on the owning worker;
// the arrays must be co-partitioned (same partition count, row counts, and
// workers) — the co-partitioning requirement §4 describes for distributed
// algorithms.
func Zip(a, b *DArray, fn func(part int, ma, mb *Mat) error) error {
	if err := CheckCoPartitioned(a, b); err != nil {
		return err
	}
	return a.Foreach(func(i int, ma *Mat) error {
		mb, err := b.Part(i)
		if err != nil {
			return err
		}
		return fn(i, ma, mb)
	})
}

// CheckCoPartitioned verifies that two arrays share partition structure.
func CheckCoPartitioned(a, b *DArray) error {
	if a.NPartitions() != b.NPartitions() {
		return fmt.Errorf("darray: partition counts differ (%d vs %d)", a.NPartitions(), b.NPartitions())
	}
	as, bs := a.PartitionSizes(), b.PartitionSizes()
	for i := range as {
		if as[i][0] != bs[i][0] {
			return fmt.Errorf("darray: partition %d row counts differ (%d vs %d)", i, as[i][0], bs[i][0])
		}
		if a.WorkerOf(i) != b.WorkerOf(i) {
			return fmt.Errorf("darray: partition %d on different workers (%d vs %d)", i, a.WorkerOf(i), b.WorkerOf(i))
		}
	}
	return nil
}

// Collect gathers the whole array to the master as one matrix, partitions in
// order (used to fetch model-sized data, not bulk data).
func (a *DArray) Collect() (*Mat, error) {
	sizes := a.PartitionSizes()
	cols := a.Cols()
	total := 0
	for i, s := range sizes {
		if s[1] != 0 && s[1] != cols {
			return nil, fmt.Errorf("darray: inconsistent cols in partition %d", i)
		}
		total += s[0]
	}
	out := NewMat(total, cols)
	off := 0
	for i := range sizes {
		m, err := a.Part(i)
		if err != nil {
			return nil, err
		}
		copy(out.Data[off:], m.Data)
		off += len(m.Data)
	}
	return out, nil
}

// FromMat distributes an in-memory matrix across npartitions with near-equal
// row counts (the classic pre-§4 behaviour, Fig. 7).
func FromMat(c *dr.Cluster, m *Mat, npartitions int) (*DArray, error) {
	a, err := New(c, npartitions)
	if err != nil {
		return nil, err
	}
	for i := 0; i < npartitions; i++ {
		lo := i * m.Rows / npartitions
		hi := (i + 1) * m.Rows / npartitions
		p := NewMat(hi-lo, m.Cols)
		copy(p.Data, m.Data[lo*m.Cols:hi*m.Cols])
		if err := a.Fill(i, p); err != nil {
			return nil, err
		}
	}
	return a, nil
}
