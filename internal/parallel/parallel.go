// Package parallel is the intra-node execution pool underneath the scan,
// aggregation and model-math hot paths. The paper's single-node speedups come
// from using every core on every node — Vertica executes segment scans
// block-parallel and Distributed R fans IRLS accumulation across R instances
// — and this package provides the one shared primitive both sides use: a
// bounded worker pool whose degree defaults to GOMAXPROCS, is overridable
// process-wide (config / the -j flag on the cmds), and degenerates to the
// plain serial loop at degree 1.
//
// Three combinators and one fold cover the repo's parallel shapes:
//
//   - ForEach: independent tasks, results written to caller-owned slots;
//   - Window: ForEach with a bounded run-ahead, for tasks whose outputs are
//     consumed in index order (a streamed query's cursor ranges), so what
//     waits for its turn stays a constant number of tasks' worth;
//   - Reduce: per-chunk partials merged by a deterministic pairwise tree, so
//     floating-point results are a function of the chunking alone — the same
//     bits at every degree, reproducible run to run;
//   - Tree: that same tree built incrementally from partials pushed in order,
//     for folds that do not know their partial count up front.
//
// Every task passes through the faults site SiteTask ("parallel.task"), so
// chaos suites can stall or fail individual tasks, and the pool records
// telemetry: tasks executed, time tasks spent waiting for a worker, and time
// spent in reduction merges.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
)

// SiteTask is the fault-injection site every pool task passes through before
// its body runs. Delay rules model slow workers (stragglers); Error/Crash
// rules surface as the task's failure.
const SiteTask = "parallel.task"

var (
	mTasks     = telemetry.Default().Counter("parallel_tasks_total")
	mQueueWait = telemetry.Default().Counter("parallel_queue_wait_nanos_total")
	mMergeTime = telemetry.Default().Counter("parallel_merge_nanos_total")
)

// defaultDegree holds the process-wide override; 0 means GOMAXPROCS.
var defaultDegree atomic.Int64

// SetDefaultDegree overrides the process-wide default parallelism. n <= 0
// restores the GOMAXPROCS default. Degree 1 is the serial path: combinators
// run inline on the calling goroutine.
func SetDefaultDegree(n int) {
	if n < 0 {
		n = 0
	}
	defaultDegree.Store(int64(n))
}

// DefaultDegree returns the effective process-wide degree.
func DefaultDegree() int {
	if v := defaultDegree.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a degree-bounded task runner. Pools are cheap value objects — they
// hold no goroutines between calls; workers are spawned per combinator
// invocation and joined before it returns, so a Pool is safe for concurrent
// use and costs nothing when idle.
type Pool struct {
	degree int
}

// NewPool returns a pool of the given degree; degree <= 0 tracks the
// process-wide default (including later SetDefaultDegree changes).
func NewPool(degree int) *Pool {
	if degree < 0 {
		degree = 0
	}
	return &Pool{degree: degree}
}

// Default returns a pool tracking the process-wide default degree.
func Default() *Pool { return &Pool{} }

// Degree resolves the pool's effective degree. Nil pools are serial.
func (p *Pool) Degree() int {
	if p == nil {
		return 1
	}
	if p.degree > 0 {
		return p.degree
	}
	return DefaultDegree()
}

// taskGate runs the per-task prologue: telemetry plus the fault site.
func taskGate(started telemetry.Clock, t0 int64) error {
	mTasks.Inc()
	if t0 >= 0 {
		mQueueWait.Add(int64(started.Now()) - t0)
	}
	return faults.Check(SiteTask)
}

// ForEach runs fn(i) for every i in [0, n), using up to Degree goroutines.
// All indexes are attempted unless a task fails, after which no new indexes
// are claimed; already-running tasks complete. The returned error is the
// failure with the lowest index among those that ran — deterministic given a
// deterministic fn. At degree 1 it is the plain serial loop (stopping, like
// a serial loop, at the first failure).
func (p *Pool) ForEach(n int, fn func(i int) error) error { return p.Window(n, n, fn) }

// Window is ForEach with a bounded run-ahead: index i is claimed only once
// every index below i-ahead has finished, so however unevenly tasks run, no
// more than ahead of them lie past the oldest one still running. A caller
// that consumes task outputs in index order holds at most that many waiting
// for their turn. Indexes are claimed in order.
func (p *Pool) Window(n, ahead int, fn func(i int) error) error {
	if deg := min(p.Degree(), n, max(ahead, 1)); deg <= 1 {
		for i := 0; i < n; i++ {
			if err := taskGate(nil, -1); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	clock := telemetry.Default().Clock()
	start := int64(clock.Now())
	var (
		mu       sync.Mutex
		turn     = sync.NewCond(&mu)
		finished []bool // tracked only when the bound can bind
		next     int    // the next index to claim
		low      int    // every index below low has finished
		failed   = n    // the lowest failed index
		failure  error
		wg       sync.WaitGroup
	)
	if ahead < n {
		finished = make([]bool, n)
	}
	for w := min(p.Degree(), n, ahead); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for next < n && failed == n && next >= low+ahead {
					turn.Wait()
				}
				if next >= n || failed < n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				err := taskGate(clock, start)
				if err == nil {
					err = fn(i)
				}
				mu.Lock()
				if err != nil && i < failed {
					failed, failure = i, err
				}
				if finished != nil {
					finished[i] = true
					for low < n && finished[low] {
						low++
					}
					turn.Broadcast()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failure
}

// Reduce computes n partials concurrently and folds them with a
// deterministic pairwise tree merge: ((p0⊕p1)⊕(p2⊕p3))⊕… — the merge order
// is a function of n alone, never of scheduling, so floating-point folds
// produce identical bits at every degree and on every run. merge may mutate
// and return its first argument. n == 0 returns the zero T.
func Reduce[T any](p *Pool, n int, produce func(i int) (T, error), merge func(a, b T) (T, error)) (T, error) {
	var zero T
	if n <= 0 {
		return zero, nil
	}
	partials := make([]T, n)
	err := p.ForEach(n, func(i int) error {
		v, err := produce(i)
		if err != nil {
			return err
		}
		partials[i] = v
		return nil
	})
	if err != nil {
		return zero, err
	}
	t := Tree[T]{Merge: merge}
	for _, v := range partials {
		if err := t.Push(v); err != nil {
			return zero, err
		}
	}
	return t.Result()
}

// Tree folds partials pushed in index order into Reduce's tree. Reduce
// merges neighbours level by level, an odd last partial waiting a level; for
// every n that is the tree whose subtrees are the aligned power-of-two runs
// of n's binary digits, folded right to left. Push keeps those runs as a
// binary counter — a run merges with its left neighbour the moment they are
// the same size — and Result folds what is left, so a fold that learns its
// partials one at a time, without knowing how many there will be, keeps
// Reduce's bits. The zero Tree with Merge set is empty.
type Tree[T any] struct {
	// Merge combines two adjacent subtrees, the earlier first; it may mutate
	// and return its first argument.
	Merge func(a, b T) (T, error)
	vals  [64]T   // the pending runs, oldest first
	sizes [64]int // their leaf counts: powers of two, decreasing
	n     int
}

// Push adds the next partial.
func (t *Tree[T]) Push(v T) error {
	size := 1
	for t.n > 0 && t.sizes[t.n-1] == size {
		m, err := t.merge(t.vals[t.n-1], v)
		if err != nil {
			return err
		}
		t.n--
		t.vals[t.n] = *new(T)
		v, size = m, 2*size
	}
	t.vals[t.n], t.sizes[t.n] = v, size
	t.n++
	return nil
}

// Result is the tree's root: the pending runs folded right to left. With
// nothing pushed it is the zero T.
func (t *Tree[T]) Result() (T, error) {
	if t.n == 0 {
		return *new(T), nil
	}
	v := t.vals[t.n-1]
	for i := t.n - 2; i >= 0; i-- {
		var err error
		if v, err = t.merge(t.vals[i], v); err != nil {
			return v, err
		}
	}
	return v, nil
}

func (t *Tree[T]) merge(a, b T) (T, error) {
	clock := telemetry.Default().Clock()
	t0 := clock.Now()
	defer func() { mMergeTime.AddDuration(clock.Now() - t0) }()
	return t.Merge(a, b)
}
