// Package parallel is the intra-node execution pool underneath the scan,
// aggregation and model-math hot paths. The paper's single-node speedups come
// from using every core on every node — Vertica executes segment scans
// block-parallel and Distributed R fans IRLS accumulation across R instances
// — and this package provides the one shared primitive both sides use: a
// bounded worker pool whose degree defaults to GOMAXPROCS, is overridable
// process-wide (config / the -j flag on the cmds), and degenerates to the
// plain serial loop at degree 1.
//
// Three combinators cover the repo's parallel shapes:
//
//   - ForEach: independent tasks, results written to caller-owned slots;
//   - Ordered: concurrent producers with strictly in-order consumption and a
//     bounded run-ahead window (block-parallel segment scans that must
//     deliver batches in block order without buffering the whole segment);
//   - Reduce: per-chunk partials merged by a deterministic pairwise tree, so
//     floating-point results are a function of the chunking alone — the same
//     bits at every degree, reproducible run to run.
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
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	deg := p.Degree()
	if deg > n {
		deg = n
	}
	if deg <= 1 {
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
	var next atomic.Int64
	var failed atomic.Bool
	var first struct { // the lowest-index failure so far
		sync.Mutex
		i   int
		err error
	}
	first.i = n
	fail := func(i int, err error) {
		first.Lock()
		if i < first.i {
			first.i, first.err = i, err
		}
		first.Unlock()
		failed.Store(true)
	}
	var wg sync.WaitGroup
	for w := 0; w < deg; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := taskGate(clock, start); err != nil {
					fail(i, err)
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first.err
}

// Ordered runs produce(i) for i in [0, n) concurrently and feeds the results
// to consume strictly in index order. Producers run at most window = 2×degree
// indexes ahead of the consumer, bounding memory to a constant number of
// in-flight results regardless of n. consume runs with full happens-before
// ordering against the producer of its value, but on varying goroutines; it
// must not be called concurrently with itself, and is not. On a produce or
// consume error, the lowest-index error is returned and later indexes are
// abandoned. Degree 1 interleaves produce/consume serially — zero buffering,
// exactly the classic scan loop.
func Ordered[T any](p *Pool, n int, produce func(i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	deg := p.Degree()
	if deg > n {
		deg = n
	}
	if deg <= 1 {
		for i := 0; i < n; i++ {
			if err := taskGate(nil, -1); err != nil {
				return err
			}
			v, err := produce(i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	clock := telemetry.Default().Clock()
	start := int64(clock.Now())
	window := 2 * deg
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		vals      = make([]T, n)
		ready     = make([]bool, n)
		taskErr   = make([]error, n)
		nextClaim int
		consumed  int
		stop      bool
	)
	var wg sync.WaitGroup
	for w := 0; w < deg; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !stop && nextClaim < n && nextClaim >= consumed+window {
					cond.Wait()
				}
				if stop || nextClaim >= n {
					mu.Unlock()
					return
				}
				i := nextClaim
				nextClaim++
				mu.Unlock()
				err := taskGate(clock, start)
				var v T
				if err == nil {
					v, err = produce(i)
				}
				mu.Lock()
				vals[i], taskErr[i], ready[i] = v, err, true
				if err != nil {
					stop = true
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	var firstErr error
	mu.Lock()
	for consumed < n {
		for !ready[consumed] {
			cond.Wait()
		}
		i := consumed
		if taskErr[i] != nil {
			firstErr = taskErr[i]
			break
		}
		v := vals[i]
		vals[i] = *new(T) // release the reference while the window advances
		mu.Unlock()
		err := consume(i, v)
		mu.Lock()
		consumed++
		if err != nil {
			firstErr = err
			break
		}
		cond.Broadcast()
	}
	stop = true
	cond.Broadcast()
	mu.Unlock()
	wg.Wait()
	return firstErr
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
	clock := telemetry.Default().Clock()
	t0 := clock.Now()
	// Level by level, in place: at each level the partials sit step apart,
	// and each pairs with its right neighbour; an odd last one waits for the
	// next level.
	for step := 1; step < n; step *= 2 {
		for i := 0; i+step < n; i += 2 * step {
			m, err := merge(partials[i], partials[i+step])
			if err != nil {
				return zero, err
			}
			partials[i] = m
		}
	}
	mMergeTime.AddDuration(clock.Now() - t0)
	return partials[0], nil
}
