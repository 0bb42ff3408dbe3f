// Package darray implements the new Distributed R data structures of §4 and
// Table 1 of the paper: distributed arrays, data frames and lists declared
// with only a partition count (darray(npartitions=)), supporting *different
// partition sizes* that become known only when data arrives from Vertica.
// The master (the metadata in each D* struct, guarded by its mutex) plays
// the role of the paper's "memory manager [that] tracks the location and
// meta-data of each partition"; partition payloads live in worker stores.
package darray

import (
	"context"
	"fmt"
	"sync"

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

// partMeta is the master-side record for one partition.
type partMeta struct {
	worker int
	key    string
	rows   int
	cols   int
	filled bool
}

// DArray is a distributed dense matrix partitioned by rows. Declared with
// only a partition count; partition shapes are recorded as data is filled in
// (possibly unevenly, Fig. 8). Adjacent partitions must agree on the column
// count (the conformity check of §4).
type DArray struct {
	c    *dr.Cluster
	name string
	mu   sync.RWMutex
	part []partMeta
}

// New declares a distributed array with npartitions empty partitions. No
// worker memory is reserved: only master metadata is created (per §4).
func New(c *dr.Cluster, npartitions int) (*DArray, error) {
	if npartitions <= 0 {
		return nil, fmt.Errorf("darray: npartitions must be >= 1")
	}
	a := &DArray{c: c, name: c.GenName("darray"), part: make([]partMeta, npartitions)}
	for i := range a.part {
		a.part[i].worker = i % c.NumWorkers()
		a.part[i].key = fmt.Sprintf("%s/p%d", a.name, i)
	}
	return a, nil
}

// Name returns the array's symbol-table name.
func (a *DArray) Name() string { return a.name }

// Cluster returns the session the array lives in.
func (a *DArray) Cluster() *dr.Cluster { return a.c }

// NPartitions returns the declared partition count.
func (a *DArray) NPartitions() int { return len(a.part) }

// WorkerOf returns the worker holding partition i.
func (a *DArray) WorkerOf(i int) int { return a.part[i].worker }

// SetWorker reassigns an *unfilled* partition to a worker (used by transfer
// policies to co-locate partitions with table segments).
func (a *DArray) SetWorker(i, worker int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i < 0 || i >= len(a.part) {
		return fmt.Errorf("darray: no partition %d", i)
	}
	if a.part[i].filled {
		return fmt.Errorf("darray: partition %d already filled", i)
	}
	if worker < 0 || worker >= a.c.NumWorkers() {
		return fmt.Errorf("darray: no worker %d", worker)
	}
	a.part[i].worker = worker
	return nil
}

// Fill stores matrix m as partition i on its assigned worker, checking
// conformity: every filled partition must have the same column count.
func (a *DArray) Fill(i int, m *Mat) error {
	if m == nil || len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("darray: malformed matrix for partition %d", i)
	}
	a.mu.Lock()
	if i < 0 || i >= len(a.part) {
		a.mu.Unlock()
		return fmt.Errorf("darray: no partition %d", i)
	}
	for j := range a.part {
		if j != i && a.part[j].filled && a.part[j].cols != m.Cols {
			a.mu.Unlock()
			return fmt.Errorf("darray: partition %d has %d cols, conflicting with partition %d (%d cols)", i, m.Cols, j, a.part[j].cols)
		}
	}
	meta := &a.part[i]
	meta.rows, meta.cols, meta.filled = m.Rows, m.Cols, true
	worker, key := meta.worker, meta.key
	a.mu.Unlock()

	w, err := a.c.Worker(worker)
	if err != nil {
		return err
	}
	w.Put(key, m)
	return nil
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

// PartitionSize returns the shape of partition i (Table 1: partitionsize(A,i)).
func (a *DArray) PartitionSize(i int) (rows, cols int, err error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if i < 0 || i >= len(a.part) {
		return 0, 0, fmt.Errorf("darray: no partition %d", i)
	}
	return a.part[i].rows, a.part[i].cols, nil
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

// Rows returns the total row count over filled partitions.
func (a *DArray) Rows() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := 0
	for _, p := range a.part {
		n += p.rows
	}
	return n
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
	metas := append([]partMeta(nil), a.part...)
	a.mu.RUnlock()
	out, err := New(a.c, len(metas))
	if err != nil {
		return nil, err
	}
	for i, p := range metas {
		if !p.filled {
			return nil, fmt.Errorf("darray: clone of array with unfilled partition %d", i)
		}
		if err := out.SetWorker(i, p.worker); err != nil {
			return nil, err
		}
		if err := out.Fill(i, NewMat(p.rows, ncol)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Part fetches partition i's payload from its worker store.
func (a *DArray) Part(i int) (*Mat, error) {
	a.mu.RLock()
	if i < 0 || i >= len(a.part) {
		a.mu.RUnlock()
		return nil, fmt.Errorf("darray: no partition %d", i)
	}
	meta := a.part[i]
	a.mu.RUnlock()
	if !meta.filled {
		return nil, fmt.Errorf("darray: partition %d not filled", i)
	}
	w, err := a.c.Worker(meta.worker)
	if err != nil {
		return nil, err
	}
	v, ok := w.Get(meta.key)
	if !ok {
		return nil, fmt.Errorf("darray: partition %d missing from worker %d store", i, meta.worker)
	}
	m, ok := v.(*Mat)
	if !ok {
		return nil, fmt.Errorf("darray: partition %d holds %T, not *Mat", i, v)
	}
	return m, nil
}

// Foreach runs fn for every partition on its owning worker, in parallel
// (bounded by the worker executors). This is Distributed R's foreach over
// array partitions.
func (a *DArray) Foreach(fn func(part int, m *Mat) error) error {
	tasks := map[int][]dr.Task{}
	a.mu.RLock()
	for i := range a.part {
		i := i
		meta := a.part[i]
		if !meta.filled {
			a.mu.RUnlock()
			return fmt.Errorf("darray: foreach over unfilled partition %d", i)
		}
		tasks[meta.worker] = append(tasks[meta.worker], func(w *dr.Worker) error {
			v, ok := w.Get(meta.key)
			if !ok {
				return fmt.Errorf("darray: partition %d missing on worker %d", i, w.ID())
			}
			return fn(i, v.(*Mat))
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
