package dr

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/faults"
)

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{Workers: 0}); err == nil {
		t.Fatal("0 workers should fail")
	}
	c, err := Start(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if c.NumWorkers() != 3 {
		t.Fatalf("workers = %d", c.NumWorkers())
	}
	if c.InstancesPerWorker() != 4 {
		t.Fatalf("default instances = %d", c.InstancesPerWorker())
	}
	if _, err := c.Worker(5); err == nil {
		t.Fatal("bad worker id should fail")
	}
}

func TestWorkerStore(t *testing.T) {
	c, _ := Start(Config{Workers: 2})
	defer c.Shutdown()
	w, _ := c.Worker(0)
	w.Put("a", 1)
	w.Put("b", 2)
	if v, ok := w.Get("a"); !ok || v != 1 {
		t.Fatalf("get = %v %v", v, ok)
	}
	if _, ok := w.Get("zz"); ok {
		t.Fatal("missing key should not be found")
	}
	if keys := w.Keys(); len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("keys = %v", keys)
	}
	w.Delete("a")
	if _, ok := w.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestRunExecutesOnWorker(t *testing.T) {
	c, _ := Start(Config{Workers: 2})
	defer c.Shutdown()
	err := c.Run(1, func(w *Worker) error {
		if w.ID() != 1 {
			t.Errorf("ran on worker %d", w.ID())
		}
		w.Put("x", "y")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := c.Worker(1)
	if v, _ := w.Get("x"); v != "y" {
		t.Fatal("task effect not visible")
	}
	if err := c.Run(9, func(*Worker) error { return nil }); err == nil {
		t.Fatal("bad worker should fail")
	}
}

func TestRunPropagatesError(t *testing.T) {
	c, _ := Start(Config{Workers: 1})
	defer c.Shutdown()
	want := errors.New("boom")
	if err := c.Run(0, func(*Worker) error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunAllParallelAcrossWorkers(t *testing.T) {
	c, _ := Start(Config{Workers: 4, InstancesPerWorker: 1})
	defer c.Shutdown()
	var count atomic.Int32
	tasks := map[int][]Task{}
	for w := 0; w < 4; w++ {
		for k := 0; k < 3; k++ {
			tasks[w] = append(tasks[w], func(*Worker) error {
				count.Add(1)
				return nil
			})
		}
	}
	if err := c.RunAllCtx(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 12 {
		t.Fatalf("ran %d tasks", count.Load())
	}
}

func TestRunAllBoundsPerWorkerConcurrency(t *testing.T) {
	c, _ := Start(Config{Workers: 1, InstancesPerWorker: 2})
	defer c.Shutdown()
	var cur, peak atomic.Int32
	var mu sync.Mutex
	tasks := map[int][]Task{0: {}}
	for i := 0; i < 8; i++ {
		tasks[0] = append(tasks[0], func(*Worker) error {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := c.RunAllCtx(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds instance bound 2", p)
	}
}

func TestRunAllFirstError(t *testing.T) {
	c, _ := Start(Config{Workers: 2})
	defer c.Shutdown()
	boom := errors.New("boom")
	tasks := map[int][]Task{
		0: {func(*Worker) error { return nil }, func(*Worker) error { return boom }},
		1: {func(*Worker) error { return nil }},
	}
	if err := c.RunAllCtx(context.Background(), tasks); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Bad worker id in the map fails fast.
	if err := c.RunAllCtx(context.Background(), map[int][]Task{7: {func(*Worker) error { return nil }}}); err == nil {
		t.Fatal("bad worker id should fail")
	}
}

func TestShutdownRejectsNewWork(t *testing.T) {
	c, _ := Start(Config{Workers: 1})
	c.Shutdown()
	c.Shutdown() // idempotent
	if err := c.Run(0, func(*Worker) error { return nil }); err == nil {
		t.Fatal("run after shutdown should fail")
	}
}

// TestShutdownRejectsQueuedWork pins the shutdown race fix: a task that
// passed acquire's fast liveness check but is still waiting for an executor
// slot must be rejected — never run — once Shutdown lands.
func TestShutdownRejectsQueuedWork(t *testing.T) {
	c, _ := Start(Config{Workers: 1, InstancesPerWorker: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		firstDone <- c.Run(0, func(*Worker) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	// Second task occupies the queue behind the held slot.
	var ran atomic.Bool
	secondDone := make(chan error, 1)
	go func() {
		secondDone <- c.Run(0, func(*Worker) error {
			ran.Store(true)
			return nil
		})
	}()
	// Let the second submission pass the fast check and block on the slot.
	time.Sleep(10 * time.Millisecond)
	c.Shutdown()
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("running task interrupted: %v", err)
	}
	if err := <-secondDone; err == nil {
		t.Fatal("queued task should be rejected after shutdown")
	}
	if ran.Load() {
		t.Fatal("queued task ran after shutdown")
	}
}

func TestFailWorkerRejectsAndFailsOver(t *testing.T) {
	c, _ := Start(Config{Workers: 3})
	defer c.Shutdown()
	if err := c.FailWorker(1); err != nil {
		t.Fatal(err)
	}
	if err := c.FailWorker(1); err != nil {
		t.Fatal("FailWorker should be idempotent")
	}
	if alive := c.Alive(); len(alive) != 2 || alive[0] != 0 || alive[1] != 2 {
		t.Fatalf("alive = %v", alive)
	}
	if err := c.Run(1, func(*Worker) error { return nil }); !errors.Is(err, ErrWorkerDead) {
		t.Fatalf("run on dead worker = %v", err)
	}

	// RunAllSpecsCtx moves the dead worker's task to a survivor, calling the
	// rebuild hook with the replacement first.
	var rebuiltOn, ranOn atomic.Int32
	rebuiltOn.Store(-1)
	ranOn.Store(-1)
	specs := map[int][]TaskSpec{
		1: {{
			Run: func(w *Worker) error {
				ranOn.Store(int32(w.ID()))
				return nil
			},
			Rebuild: func(w *Worker) error {
				rebuiltOn.Store(int32(w.ID()))
				return nil
			},
		}},
	}
	if err := c.RunAllSpecsCtx(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if rebuiltOn.Load() != 2 || ranOn.Load() != 2 {
		t.Fatalf("failover went to rebuild=%d run=%d, want worker 2", rebuiltOn.Load(), ranOn.Load())
	}
}

// A task waiting for an executor slot on a worker that then fails is
// rejected without running there: it fails over to the survivor, whose
// rebuild hook runs first, while the task holding the slot completes.
func TestFailWorkerRejectsQueuedWork(t *testing.T) {
	c, _ := Start(Config{Workers: 2, InstancesPerWorker: 1})
	defer c.Shutdown()
	started := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		firstDone <- c.Run(0, func(*Worker) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	submitted0, rejected0 := mTasksSubmitted.Value(), mTasksRejected.Value()
	var rebuiltOn, ranOn atomic.Int32
	rebuiltOn.Store(-1)
	ranOn.Store(-1)
	secondDone := make(chan error, 1)
	go func() {
		secondDone <- c.RunAllSpecsCtx(context.Background(), map[int][]TaskSpec{0: {{
			Run: func(w *Worker) error {
				ranOn.Store(int32(w.ID()))
				return nil
			},
			Rebuild: func(w *Worker) error {
				rebuiltOn.Store(int32(w.ID()))
				return nil
			},
		}}})
	}()
	// Fail the worker once the second task has passed the fast check and
	// waits for the slot.
	for mTasksSubmitted.Value() == submitted0 {
		time.Sleep(time.Millisecond)
	}
	if err := c.FailWorker(0); err != nil {
		t.Fatal(err)
	}
	// The slot is still held: the queued task must leave without it.
	if err := <-secondDone; err != nil {
		t.Fatalf("queued task did not fail over: %v", err)
	}
	if ranOn.Load() != 1 || rebuiltOn.Load() != 1 {
		t.Fatalf("queued task ran on %d after a rebuild on %d, want worker 1 for both", ranOn.Load(), rebuiltOn.Load())
	}
	if got := mTasksRejected.Value() - rejected0; got != 1 {
		t.Fatalf("dr_tasks_total{state=rejected} moved by %d, want 1", got)
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("running task interrupted: %v", err)
	}
}

func TestRunAllRetriesTransientErrors(t *testing.T) {
	c, _ := Start(Config{Workers: 1, TaskRetries: 3})
	defer c.Shutdown()
	var tries atomic.Int32
	tasks := map[int][]Task{0: {func(*Worker) error {
		if tries.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	}}}
	if err := c.RunAllCtx(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if tries.Load() != 3 {
		t.Fatalf("task tried %d times, want 3", tries.Load())
	}

	// The cap is real: a task that always fails exhausts its retries.
	tries.Store(0)
	err := c.RunAllCtx(context.Background(), map[int][]Task{0: {func(*Worker) error {
		tries.Add(1)
		return errors.New("permanent")
	}}})
	if err == nil {
		t.Fatal("permanently failing task should error")
	}
	if tries.Load() != 4 { // 1 initial + 3 retries
		t.Fatalf("task tried %d times, want 4", tries.Load())
	}
}

func TestInjectedCrashKillsWorker(t *testing.T) {
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteDRTask, Kind: faults.Crash, EveryN: 1, Limit: 1})
	faults.Install(in)
	defer faults.Install(nil)

	c, _ := Start(Config{Workers: 2})
	defer c.Shutdown()
	var ranOn atomic.Int32
	ranOn.Store(-1)
	err := c.RunAllSpecsCtx(context.Background(), map[int][]TaskSpec{0: {{Run: func(w *Worker) error {
		ranOn.Store(int32(w.ID()))
		return nil
	}}}})
	if err != nil {
		t.Fatalf("crash should be recovered: %v", err)
	}
	w0, _ := c.Worker(0)
	if !w0.Dead() {
		t.Fatal("crashed worker not marked dead")
	}
	if ranOn.Load() != 1 {
		t.Fatalf("task ran on %d, want failover to worker 1", ranOn.Load())
	}
}

func TestNoSurvivorsErrors(t *testing.T) {
	c, _ := Start(Config{Workers: 1})
	defer c.Shutdown()
	if err := c.FailWorker(0); err != nil {
		t.Fatal(err)
	}
	err := c.RunAllCtx(context.Background(), map[int][]Task{0: {func(*Worker) error { return nil }}})
	if !errors.Is(err, ErrWorkerDead) {
		t.Fatalf("err = %v, want ErrWorkerDead", err)
	}
	if err := c.FailWorker(5); err == nil {
		t.Fatal("failing an unknown worker should error")
	}
}

func TestGenNameUnique(t *testing.T) {
	c, _ := Start(Config{Workers: 1})
	defer c.Shutdown()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := c.GenName("obj")
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestGenNameConcurrent(t *testing.T) {
	c, _ := Start(Config{Workers: 1})
	defer c.Shutdown()
	var wg sync.WaitGroup
	names := make(chan string, 200)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				names <- c.GenName("x")
			}
		}()
	}
	wg.Wait()
	close(names)
	seen := map[string]bool{}
	for n := range names {
		if seen[n] {
			t.Fatalf("duplicate concurrent name %q", n)
		}
		seen[n] = true
	}
}

// BenchmarkDispatch is one no-op task through Cluster.Run: the scheduling
// cost every task pays.
func BenchmarkDispatch(b *testing.B) {
	c, err := Start(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Shutdown()
	noop := func(*Worker) error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Run(0, noop); err != nil {
			b.Fatal(err)
		}
	}
}
