package darray

import (
	"fmt"
	"sync"

	"verticadr/internal/dr"
)

// partMeta is the master-side record for one partition.
type partMeta struct {
	worker int
	key    string
	rows   int
	cols   int
	filled bool
}

// parts is the master's record of one distributed object's partitions, whose
// payloads are of type T: where each lives, its store key, shape and whether
// it is filled. The cluster, the name and the partition count are fixed at
// declaration; each partition's record is read and written under mu. DArray,
// DFrame and DList embed it and add only their own conformity checks and
// views.
type parts[T any] struct {
	c    *dr.Cluster
	name string
	mu   sync.RWMutex
	part []partMeta
}

// placement is an object whose partition placement a new one can copy.
type placement interface{ WorkerOf(i int) int }

// declare names the object after kind and creates npartitions empty
// partitions: metadata only, no worker memory (§4). Partition i goes to
// worker i mod NumWorkers, or, given like (of npartitions partitions), to the
// worker holding like's partition i, co-locating the two objects.
func (p *parts[T]) declare(c *dr.Cluster, kind string, npartitions int, like placement) error {
	if npartitions <= 0 {
		return fmt.Errorf("darray: npartitions must be >= 1")
	}
	p.c, p.name, p.part = c, c.GenName(kind), make([]partMeta, npartitions)
	for i := range p.part {
		p.part[i] = partMeta{worker: i % c.NumWorkers(), key: fmt.Sprintf("%s/p%d", p.name, i)}
		if like != nil {
			p.part[i].worker = like.WorkerOf(i)
		}
	}
	return nil
}

// Name returns the object's symbol-table name.
func (p *parts[T]) Name() string { return p.name }

// NPartitions returns the declared partition count.
func (p *parts[T]) NPartitions() int { return len(p.part) }

// WorkerOf returns the worker holding partition i.
func (p *parts[T]) WorkerOf(i int) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.part[i].worker
}

// SetWorker reassigns an *unfilled* partition to a worker (used by transfer
// policies to co-locate partitions with table segments, and by a transfer's
// failover to re-point a dead worker's partition at a survivor).
func (p *parts[T]) SetWorker(i, worker int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.part) {
		return fmt.Errorf("darray: no partition %d", i)
	}
	if p.part[i].filled {
		return fmt.Errorf("darray: partition %d already filled", i)
	}
	if worker < 0 || worker >= p.c.NumWorkers() {
		return fmt.Errorf("darray: no worker %d", worker)
	}
	p.part[i].worker = worker
	return nil
}

// fill records partition i as filled with a rows×cols payload v and stores v
// on the partition's worker. check, if non-nil, runs under the lock once the
// index is known good, before anything changes: the object's conformity
// check against its other partitions.
func (p *parts[T]) fill(i int, v T, rows, cols int, check func() error) error {
	p.mu.Lock()
	if i < 0 || i >= len(p.part) {
		p.mu.Unlock()
		return fmt.Errorf("darray: no partition %d", i)
	}
	if check != nil {
		if err := check(); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	meta := &p.part[i]
	meta.rows, meta.cols, meta.filled = rows, cols, true
	worker, key := meta.worker, meta.key
	p.mu.Unlock()

	w, err := p.c.Worker(worker)
	if err != nil {
		return err
	}
	w.Put(key, v)
	return nil
}

// Part fetches partition i's payload from its worker store.
func (p *parts[T]) Part(i int) (v T, err error) {
	p.mu.RLock()
	if i < 0 || i >= len(p.part) {
		p.mu.RUnlock()
		return v, fmt.Errorf("darray: no partition %d", i)
	}
	meta := p.part[i]
	p.mu.RUnlock()
	if !meta.filled {
		return v, fmt.Errorf("darray: partition %d not filled", i)
	}
	w, err := p.c.Worker(meta.worker)
	if err != nil {
		return v, err
	}
	return p.get(w, i, meta.key)
}

// get reads partition i's payload, stored under key, from w's store.
func (p *parts[T]) get(w *dr.Worker, i int, key string) (v T, err error) {
	stored, ok := w.Get(key)
	if !ok {
		return v, fmt.Errorf("darray: partition %d missing from worker %d store", i, w.ID())
	}
	if v, ok = stored.(T); !ok {
		return v, fmt.Errorf("darray: partition %d holds %T, not %T", i, stored, v)
	}
	return v, nil
}

// PartitionSize returns the shape of partition i (Table 1:
// partitionsize(A,i)).
func (p *parts[T]) PartitionSize(i int) (rows, cols int, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i < 0 || i >= len(p.part) {
		return 0, 0, fmt.Errorf("darray: no partition %d", i)
	}
	return p.part[i].rows, p.part[i].cols, nil
}

// Rows returns the total row count over filled partitions.
func (p *parts[T]) Rows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, m := range p.part {
		n += m.rows
	}
	return n
}
