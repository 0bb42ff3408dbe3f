// Package dr implements the Distributed R substitute: a master/worker
// runtime with per-worker in-memory partition stores and a bounded number
// of executor slots per worker (the paper's "R instances per node"). A task
// runs on the goroutine that waits for it, once it holds a slot. Distributed
// data structures (internal/darray) and the parallel ML algorithms
// (internal/algos) run on top of this substrate; the transfer paths
// (internal/odbc, internal/vft) deliver data into worker stores.
//
// The paper's Distributed R runs workers as separate OS processes across
// machines; here workers are in-process with their own stores and bounded
// executors, which preserves the scheduling and data-placement behaviour
// while remaining runnable on one machine.
//
// Failure handling mirrors Distributed R's "re-execute failed tasks on
// surviving workers": FailWorker (or an injected faults.ErrCrash from a
// running task) marks a worker's executor dead, after which tasks waiting
// for a slot and new ones are rejected with ErrWorkerDead and
// RunAllSpecsCtx re-targets the dead worker's tasks to survivors, invoking
// each task's Rebuild hook so the caller can re-fetch lost partitions
// first. Non-fatal task errors are retried in place up to a configurable
// cap.
package dr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// Task-scheduling observability: how much work the runtime dispatched, how
// long tasks waited for an executor slot vs. ran, the current in-flight
// count, and the recovery activity (retries, failovers, dead workers).
var (
	// Each state label resolved once: task submission/dispatch is a hot
	// path and registry lookups format the series key per call.
	mTasksSubmitted = telemetry.Default().Counter("dr_tasks_total", telemetry.L("state", "submitted"))
	mTasksRun       = telemetry.Default().Counter("dr_tasks_total", telemetry.L("state", "run"))
	mTasksRejected  = telemetry.Default().Counter("dr_tasks_total", telemetry.L("state", "rejected"))
	mWaitNs         = telemetry.Default().Counter("dr_task_wait_nanos_total")
	mRunNs          = telemetry.Default().Counter("dr_task_run_nanos_total")
	gActive         = telemetry.Default().Gauge("dr_tasks_active")
	mRetries        = telemetry.Default().Counter("dr_task_retries_total")
	mFailovers      = telemetry.Default().Counter("dr_task_failovers_total")
	mWorkerFailures = telemetry.Default().Counter("dr_worker_failures_total")
	gDeadWorkers    = telemetry.Default().Gauge("dr_workers_dead")
)

// ErrWorkerDead marks task rejections caused by a failed worker;
// RunAllSpecsCtx treats it (and faults.ErrCrash) as worker death and fails
// the task over to a survivor instead of retrying in place.
var ErrWorkerDead = errors.New("dr: worker dead")

// Config configures a Distributed R session.
type Config struct {
	// Workers is the number of worker nodes (>= 1).
	Workers int
	// InstancesPerWorker bounds concurrent tasks per worker — the number of
	// R instances started on each node (default 4; the paper uses 24).
	InstancesPerWorker int
	// TaskRetries caps in-place re-executions of a task that failed with a
	// non-fatal error in RunAllCtx (0 = fail fast, the pre-recovery behaviour).
	// Worker-death failover is independent of this cap and always on.
	TaskRetries int
}

// Cluster is a running Distributed R session: one master plus workers.
type Cluster struct {
	cfg     Config
	workers []*Worker
	nextID  atomic.Uint64
	closed  atomic.Bool
}

// Start launches a session.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("dr: need at least 1 worker")
	}
	if cfg.InstancesPerWorker <= 0 {
		cfg.InstancesPerWorker = 4
	}
	if cfg.TaskRetries < 0 {
		cfg.TaskRetries = 0
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		c.workers = append(c.workers, newWorker(i, cfg.InstancesPerWorker))
	}
	return c, nil
}

// Shutdown stops the session; subsequent task submissions fail.
func (c *Cluster) Shutdown() {
	if c.closed.Swap(true) {
		return
	}
	for _, w := range c.workers {
		w.close()
	}
}

// NumWorkers returns the worker count.
func (c *Cluster) NumWorkers() int { return len(c.workers) }

// InstancesPerWorker returns the per-worker executor width.
func (c *Cluster) InstancesPerWorker() int { return c.cfg.InstancesPerWorker }

// Worker returns worker i.
func (c *Cluster) Worker(i int) (*Worker, error) {
	if i < 0 || i >= len(c.workers) {
		return nil, fmt.Errorf("dr: no worker %d", i)
	}
	return c.workers[i], nil
}

// FailWorker marks worker i's executor dead — the crash mode used by fault
// injection and chaos tests. Tasks waiting for a slot and new ones are
// rejected with ErrWorkerDead; RunAllSpecsCtx re-executes the worker's
// tasks on survivors.
// The worker's partition store stays readable: an executor crash models a
// wedged R process, while the data survives the way Vertica's k-safe buddy
// projections keep segments available through node loss.
func (c *Cluster) FailWorker(i int) error {
	w, err := c.Worker(i)
	if err != nil {
		return err
	}
	if w.fail() {
		mWorkerFailures.Inc()
		gDeadWorkers.Add(1)
	}
	return nil
}

// nextAlive picks the first surviving worker after `from` in ring order, or
// -1 when every worker is dead.
func (c *Cluster) nextAlive(from int) int {
	n := len(c.workers)
	for k := 1; k <= n; k++ {
		cand := (from + k) % n
		if !c.workers[cand].Dead() {
			return cand
		}
	}
	return -1
}

// GenName allocates a cluster-unique object name (the master's symbol table
// namespace for distributed objects).
func (c *Cluster) GenName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, c.nextID.Add(1))
}

// Task is a unit of work executed on a worker, with access to that worker's
// partition store.
type Task func(w *Worker) error

// TaskSpec pairs a task with an optional failover hook. When the task's
// assigned worker dies, RunAllSpecsCtx re-targets the task to a surviving
// worker after calling Rebuild with it — the caller's chance to re-fetch
// lost partitions or re-point distributed-object metadata (the paper's
// partition re-fetch on task re-execution). A nil Rebuild means the task is
// location-independent and can simply re-run elsewhere.
type TaskSpec struct {
	Run     Task
	Rebuild func(replacement *Worker) error
}

// Run runs one task on worker i and waits for it (a running task is not
// interrupted — tasks are the unit of cancellation, see RunAllSpecsCtx).
func (c *Cluster) Run(i int, t Task) error {
	w, err := c.Worker(i)
	if err != nil {
		return err
	}
	return runOnce(w, t)
}

// runOnce takes one of w's executor slots and runs t on the calling
// goroutine, surfacing rejections (shutdown or death before the task held a
// slot) and injected faults.
func runOnce(w *Worker, t Task) error {
	start, err := w.acquire()
	if err != nil {
		return err
	}
	defer w.release(start)
	if err := faults.Check(faults.SiteDRTask); err != nil {
		return err
	}
	return t(w)
}

// RunAllCtx executes, for each worker, a list of tasks. Tasks assigned to
// the same worker share that worker's bounded executor (at most
// InstancesPerWorker run concurrently); different workers run fully in
// parallel. Failed tasks are retried up to the cluster's TaskRetries cap and
// failed over on worker death; the first unrecovered error is returned.
// Cancellation is as in RunAllSpecsCtx.
func (c *Cluster) RunAllCtx(ctx context.Context, tasks map[int][]Task) error {
	specs := make(map[int][]TaskSpec, len(tasks))
	for wid, list := range tasks {
		for _, t := range list {
			specs[wid] = append(specs[wid], TaskSpec{Run: t})
		}
	}
	return c.RunAllSpecsCtx(ctx, specs)
}

// RunAllSpecsCtx is RunAllCtx with explicit per-task failover hooks; failed
// tasks are retried up to the cluster's TaskRetries cap. Cancellation is
// observed at task boundaries: tasks not yet started are refused, and
// retries/failovers of already-failed tasks stop. In-flight task bodies run
// to completion.
func (c *Cluster) RunAllSpecsCtx(ctx context.Context, tasks map[int][]TaskSpec) error {
	for wid := range tasks {
		if _, err := c.Worker(wid); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for wid, list := range tasks {
		for _, spec := range list {
			wg.Add(1)
			wid, spec := wid, spec
			go func() {
				defer wg.Done()
				record(c.runSpec(ctx, wid, spec))
			}()
		}
	}
	wg.Wait()
	return firstErr
}

// runSpec drives one task to completion: in-place retries for ordinary
// errors, failover to survivors (with rebuild) on worker death.
func (c *Cluster) runSpec(ctx context.Context, wid int, spec TaskSpec) error {
	attempts := 0
	moves := 0
	for {
		if err := verr.Canceled(ctx.Err()); err != nil {
			return err
		}
		w, err := c.Worker(wid)
		if err != nil {
			return err
		}
		err = runOnce(w, spec.Run)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrWorkerDead) || errors.Is(err, faults.ErrCrash) {
			// The worker died (or an injected crash killed it mid-task):
			// mark it dead and move the task to the next survivor.
			_ = c.FailWorker(wid)
			if moves >= len(c.workers) {
				return err
			}
			next := c.nextAlive(wid)
			if next < 0 {
				return fmt.Errorf("dr: no surviving workers: %w", err)
			}
			moves++
			mFailovers.Inc()
			if spec.Rebuild != nil {
				if rerr := spec.Rebuild(c.workers[next]); rerr != nil {
					return fmt.Errorf("dr: failover rebuild on worker %d: %w", next, rerr)
				}
			}
			wid = next
			continue
		}
		if attempts < c.cfg.TaskRetries {
			attempts++
			mRetries.Inc()
			continue
		}
		return err
	}
}

// Worker is one Distributed R worker node: an in-memory partition store
// (the paper stages incoming data in /dev/shm) plus a bounded executor.
type Worker struct {
	id    int
	sem   chan struct{}
	mu    sync.RWMutex
	store map[string]any
	done  chan struct{}
	once  sync.Once
	dead  chan struct{}
	fonce sync.Once
}

func newWorker(id, instances int) *Worker {
	return &Worker{
		id:    id,
		sem:   make(chan struct{}, instances),
		store: make(map[string]any),
		done:  make(chan struct{}),
		dead:  make(chan struct{}),
	}
}

// ID returns the worker's node id.
func (w *Worker) ID() int { return w.id }

func (w *Worker) close() { w.once.Do(func() { close(w.done) }) }

// fail marks the worker dead, reporting whether this call was the first.
func (w *Worker) fail() bool {
	first := false
	w.fonce.Do(func() {
		close(w.dead)
		first = true
	})
	return first
}

// Dead reports whether the worker's executor has failed.
func (w *Worker) Dead() bool {
	select {
	case <-w.dead:
		return true
	default:
		return false
	}
}

// reject counts a turned-away task and names why it was turned away.
func (w *Worker) reject() error {
	mTasksRejected.Inc()
	if w.Dead() {
		return fmt.Errorf("dr: worker %d: %w", w.id, ErrWorkerDead)
	}
	return fmt.Errorf("dr: worker %d is shut down", w.id)
}

// acquire takes an executor slot for a task about to run on the caller's
// goroutine, returning when it started to run (for release), or a rejection
// if the worker shut down or died first. Liveness is re-checked while queued
// for a slot and again after winning one, so a task that passed the initial
// check can never start running after Shutdown or FailWorker — the shutdown
// race the pre-recovery implementation had.
func (w *Worker) acquire() (time.Duration, error) {
	select {
	case <-w.done:
		return 0, w.reject()
	case <-w.dead:
		return 0, w.reject()
	default:
	}
	mTasksSubmitted.Inc()
	queued := telemetry.Default().Now()
	select {
	case <-w.done:
		return 0, w.reject()
	case <-w.dead:
		return 0, w.reject()
	case w.sem <- struct{}{}:
	}
	// The slot may have been won in a race with close(done)/close(dead);
	// re-check so no task launches on a stopped worker.
	select {
	case <-w.done:
		<-w.sem
		return 0, w.reject()
	case <-w.dead:
		<-w.sem
		return 0, w.reject()
	default:
	}
	start := telemetry.Default().Now()
	mWaitNs.AddDuration(start - queued)
	gActive.Add(1)
	return start, nil
}

// release gives back the executor slot a task took at start.
func (w *Worker) release(start time.Duration) {
	gActive.Add(-1)
	mRunNs.AddDuration(telemetry.Default().Now() - start)
	mTasksRun.Inc()
	<-w.sem
}

// Put stores a partition value under key.
func (w *Worker) Put(key string, v any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.store[key] = v
}

// Get fetches a partition value.
func (w *Worker) Get(key string) (any, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	v, ok := w.store[key]
	return v, ok
}

// Delete removes a partition value.
func (w *Worker) Delete(key string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.store, key)
}

// Keys lists stored keys, sorted (diagnostics and tests).
func (w *Worker) Keys() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.store))
	for k := range w.store {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
