package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/algos"
	"verticadr/internal/core"
	"verticadr/internal/faults"
	"verticadr/internal/sqlexec"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

const predictSQL = `SELECT GlmPredict(x USING PARAMETERS model='m') OVER (PARTITION BEST) FROM px`

// testSession builds a small session with table px (rows of x = 0) and an
// intercept-only Gaussian GLM deployed as "m": every prediction equals the
// model's intercept, which makes stale-model reads directly observable.
func testSession(t *testing.T, rows int, intercept float64) *core.Session {
	t.Helper()
	s, err := core.Start(core.Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 1, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.ExecContext(context.Background(), `CREATE TABLE px (x FLOAT) SEGMENTED BY ROUND ROBIN`); err != nil {
		t.Fatal(err)
	}
	if err := s.DB.LoadColumns("px", [][]float64{make([]float64, rows)}); err != nil {
		t.Fatal(err)
	}
	model := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{intercept, 0}, Converged: true}
	if err := s.DeployModel("m", "me", "test model", model); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerQueryUsesPlanCache(t *testing.T) {
	s := testSession(t, 128, 1)
	srv := New(s, Config{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := srv.Query(ctx, `SELECT count(*) FROM px`)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows()[0][0].(int64); got != 128 {
			t.Fatalf("count = %d, want 128", got)
		}
	}
	if srv.PlanCacheLen() != 1 {
		t.Fatalf("plan cache len = %d, want 1 (repeats must share one plan)", srv.PlanCacheLen())
	}
}

// A template in the plan cache serves only a run that binds it: the same
// text run with no arguments is parsed afresh, and server_plan_cache_total
// and the span count it as the miss it is, not as a hit.
func TestStatementUnboundTemplateIsAMiss(t *testing.T) {
	srv := New(testSession(t, 16, 1), Config{})
	const q = `SELECT count(*) FROM px WHERE x >= ?`
	hits := telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "hit"))
	misses := telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "miss"))
	run := func(args []any, wantHit bool) {
		t.Helper()
		h0, m0 := hits.Value(), misses.Value()
		reg := telemetry.NewRegistry()
		ctx, span := reg.StartTrace(context.Background(), "test")
		_, _ = srv.Resolve(ctx, q, args)
		span.End()
		want := "miss"
		if wantHit {
			want = "hit"
		}
		got := ""
		for _, a := range reg.Spans().Export()[0].Attrs {
			if a.Key == "plan_cache" {
				got = a.Value
			}
		}
		if dh, dm := hits.Value()-h0, misses.Value()-m0; got != want || dh+dm != 1 || (dh == 1) != wantHit {
			t.Fatalf("args %v: span says %q, %d hits and %d misses counted; want one %s", args, got, dh, dm, want)
		}
	}
	run([]any{0.0}, false)
	run([]any{0.5}, true)
	run(nil, false)
}

// DDL bumps the catalog epoch, which is part of the plan-cache key: a query
// repeated across a CREATE INDEX (or any DDL) re-plans instead of reusing
// the pre-DDL cache entry, so cached plans can never execute against access
// paths that no longer exist.
func TestServerPlanCacheInvalidatedByDDL(t *testing.T) {
	s := testSession(t, 64, 1)
	srv := New(s, Config{})
	ctx := context.Background()
	const q = `SELECT count(*) FROM px WHERE x >= 0.0`
	if _, err := srv.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if srv.PlanCacheLen() != 1 {
		t.Fatalf("plan cache len = %d, want 1", srv.PlanCacheLen())
	}
	if err := srv.Exec(ctx, `CREATE INDEX px_x ON px (x)`); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows()[0][0].(int64); got != 64 {
		t.Fatalf("count = %d, want 64", got)
	}
	// A second entry under the new epoch proves the old one was not reused.
	if srv.PlanCacheLen() != 2 {
		t.Fatalf("plan cache len = %d, want 2 (pre- and post-DDL epochs)", srv.PlanCacheLen())
	}
	// Stable epoch: the post-DDL entry is shared by further repeats.
	if _, err := srv.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if srv.PlanCacheLen() != 2 {
		t.Fatalf("plan cache len = %d after repeat, want 2", srv.PlanCacheLen())
	}
}

func TestServerPlanCacheBounded(t *testing.T) {
	s := testSession(t, 16, 1)
	srv := New(s, Config{PlanCacheSize: 2})
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT count(*) FROM px`,
		`SELECT sum(x) FROM px`,
		`SELECT min(x) FROM px`,
	} {
		if _, err := srv.Query(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	if srv.PlanCacheLen() != 2 {
		t.Fatalf("plan cache len = %d, want 2 (bounded LRU)", srv.PlanCacheLen())
	}
}

func TestPrepareExecuteBindsPlaceholders(t *testing.T) {
	s := testSession(t, 100, 1)
	srv := New(s, Config{})
	ctx := context.Background()
	if err := srv.Prepare("above", `SELECT x FROM px WHERE x > ?`); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Execute(ctx, "above", -0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 100 {
		t.Fatalf("x > -0.5 matched %d rows, want 100", res.Len())
	}
	res, err = srv.Execute(ctx, "above", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("x > 0.5 matched %d rows, want 0", res.Len())
	}
	// Arity and type errors are rejected before execution.
	if _, err := srv.Execute(ctx, "above"); err == nil {
		t.Fatal("missing argument accepted")
	}
	if _, err := srv.Execute(ctx, "above", struct{}{}); err == nil {
		t.Fatal("unsupported argument type accepted")
	}
	if _, err := srv.Execute(ctx, "nosuch", 1); err == nil {
		t.Fatal("unknown statement name accepted")
	}
	// Unbound placeholders cannot sneak through the one-shot path.
	if _, err := srv.Query(ctx, `SELECT x FROM px WHERE x > ?`); err == nil {
		t.Fatal("one-shot query with unbound placeholder executed")
	}
}

// One cached template serves every execution at once: plans share its
// nodes, and nothing writes to them. Goroutines execute a prepared
// statement with distinct arguments while others run its text one-shot and
// a statement with no placeholders (whose plan is the template itself, its
// qualifiers stripped on a copy); every answer is right, and both templates
// render as they did.
func TestSharedTemplateConcurrentExecuteAndQuery(t *testing.T) {
	s, err := core.Start(core.Config{DBNodes: 2, DRWorkers: 1, InstancesPerWorker: 1, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	if err := s.ExecContext(ctx, `CREATE TABLE t (x FLOAT) SEGMENTED BY ROUND ROBIN`); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if err := s.DB.LoadColumns("t", [][]float64{xs}); err != nil {
		t.Fatal(err)
	}
	srv := New(s, Config{MaxConcurrent: 8})
	const prepared = `SELECT count(*) AS n FROM t WHERE t.x < ? AND x >= ?`
	const literal = `SELECT count(*) AS n FROM t AS u WHERE u.x < 50`
	if err := srv.Prepare("below", prepared); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(ctx, literal); err != nil {
		t.Fatal(err)
	}
	template := func(sql string) string {
		sel, ok := srv.plans.get(srv.cacheKey(normalize(sql)))
		if !ok {
			t.Fatalf("no cached template for %q", sql)
		}
		return sel.String()
	}
	before := map[string]string{prepared: template(prepared), literal: template(literal)}
	count := func(res *sqlexec.Result, err error) int64 {
		if err != nil {
			return -1
		}
		return res.Rows()[0][0].(int64)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch hi, lo := (g*7+i)%100+1, i%10; g % 3 {
				case 0, 1:
					if n := count(srv.Execute(ctx, "below", float64(hi), int64(lo))); n != int64(max(hi-lo, 0)) {
						errs <- fmt.Errorf("x in [%d, %d) counted %d", lo, hi, n)
					}
				case 2:
					if _, err := srv.Query(ctx, prepared); err == nil || !strings.Contains(err.Error(), "unbound placeholder") {
						errs <- fmt.Errorf("the template run one-shot: %v", err)
					}
					if n := count(srv.Query(ctx, literal)); n != 50 {
						errs <- fmt.Errorf("x < 50 counted %d", n)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for sql, want := range before {
		if got := template(sql); got != want {
			t.Errorf("the cached template of %q renders as %q, was %q", sql, got, want)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	s := testSession(t, 16, 1)
	srv := New(s, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond})
	ctx := context.Background()

	release, err := srv.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue...
	waited := make(chan error, 1)
	go func() {
		rel, err := srv.acquire(context.Background())
		if err == nil {
			rel()
		}
		waited <- err
	}()
	// ...wait until it is actually queued, then the next arrival must be
	// refused immediately with the typed error.
	deadline := time.Now().Add(2 * time.Second)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.acquire(ctx); !errors.Is(err, verr.ErrOverloaded) {
		t.Fatalf("queue-full acquire: err = %v, want verr.ErrOverloaded", err)
	}
	release()
	if err := <-waited; err != nil {
		t.Fatalf("queued waiter: %v (should have gotten the released slot)", err)
	}

	// With the only slot held and nobody releasing, a queued waiter is shed
	// after QueueWait.
	release, err = srv.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	if _, err := srv.acquire(ctx); !errors.Is(err, verr.ErrOverloaded) {
		t.Fatalf("queue-wait acquire: err = %v, want verr.ErrOverloaded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("queue-wait shedding took far longer than QueueWait")
	}
}

func TestQueryTimeoutYieldsTypedCancel(t *testing.T) {
	s := testSession(t, 256, 1)
	srv := New(s, Config{QueryTimeout: time.Nanosecond})
	_, err := srv.Query(context.Background(), predictSQL)
	if !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("err = %v, want verr.ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to also match context.DeadlineExceeded", err)
	}
}

func TestPreCanceledContext(t *testing.T) {
	s := testSession(t, 16, 1)
	srv := New(s, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Query(ctx, `SELECT count(*) FROM px`); !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("err = %v, want verr.ErrCanceled", err)
	}
}

func TestServerCloseFailsFast(t *testing.T) {
	s := testSession(t, 16, 1)
	srv := New(s, Config{})
	srv.Close()
	if _, err := srv.Query(context.Background(), `SELECT count(*) FROM px`); !errors.Is(err, verr.ErrClosed) {
		t.Fatalf("err = %v, want verr.ErrClosed", err)
	}
	if err := srv.Prepare("p", `SELECT x FROM px`); !errors.Is(err, verr.ErrClosed) {
		t.Fatalf("prepare err = %v, want verr.ErrClosed", err)
	}
}

// The headline race test: N goroutines issue mixed PREPARE / EXECUTE /
// one-shot PREDICT against one server while DeployModel overwrites the
// model concurrently. The model is intercept-only, redeployed with strictly
// increasing intercepts; a query that starts after Redeploy returns must
// never see an older intercept (no stale-model reads after invalidation).
func TestConcurrentMixedWorkloadWithRedeploy(t *testing.T) {
	s := testSession(t, 128, 0)
	srv := New(s, Config{MaxConcurrent: 8, MaxQueue: 64, QueueWait: 10 * time.Second})
	if err := srv.Prepare("pred", predictSQL); err != nil {
		t.Fatal(err)
	}

	const (
		readers     = 8
		iters       = 25
		redeploys   = 20
		maxDeployed = float64(redeploys)
	)
	var published atomic.Int64 // highest intercept Redeploy has returned for
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 1; g <= redeploys; g++ {
			model := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{float64(g), 0}, Converged: true}
			if err := s.Models.Redeploy(context.Background(), "m", "me", model); err != nil {
				errs <- fmt.Errorf("redeploy %d: %w", g, err)
				return
			}
			published.Store(int64(g))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				floor := float64(published.Load())
				var got float64
				switch i % 3 {
				case 0: // one-shot (plan-cached) PREDICT
					res, err := srv.Query(ctx, predictSQL)
					if err != nil {
						errs <- err
						return
					}
					got = res.Batch.Cols[0].Floats[0]
				case 1: // prepared PREDICT
					res, err := srv.Execute(ctx, "pred")
					if err != nil {
						errs <- err
						return
					}
					got = res.Batch.Cols[0].Floats[0]
				default: // re-prepare under a per-reader name, then run it
					name := fmt.Sprintf("pred-%d", r)
					if err := srv.Prepare(name, predictSQL); err != nil {
						errs <- err
						return
					}
					res, err := srv.Execute(ctx, name)
					if err != nil {
						errs <- err
						return
					}
					got = res.Batch.Cols[0].Floats[0]
				}
				if got < floor || got > maxDeployed {
					errs <- fmt.Errorf("stale model read: predicted %v, but intercept %v was already deployed (max %v)", got, floor, maxDeployed)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles, the latest model must be served.
	res, err := srv.Query(context.Background(), predictSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Batch.Cols[0].Floats[0]; got != maxDeployed {
		t.Fatalf("final prediction %v, want %v", got, maxDeployed)
	}
}

// Session.Close must drain in-flight queries deterministically: running
// queries are canceled and finish, new work fails fast with verr.ErrClosed,
// and no goroutines leak.
func TestSessionCloseDrainsInflight(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := core.Start(core.Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 1, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecContext(context.Background(), `CREATE TABLE big (x FLOAT) SEGMENTED BY ROUND ROBIN`); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := s.DB.LoadColumns("big", [][]float64{vals}); err != nil {
		t.Fatal(err)
	}

	const inflight = 4
	done := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := s.QueryContext(context.Background(), `SELECT sum(x) FROM big`)
			done <- err
		}()
	}
	time.Sleep(2 * time.Millisecond) // let some queries get going
	closed := make(chan struct{})
	go func() {
		s.Close() // must cancel + drain, never deadlock
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Session.Close deadlocked with queries in flight")
	}
	for i := 0; i < inflight; i++ {
		select {
		case err := <-done:
			// A query either completed before the cancel or was canceled —
			// both are deterministic outcomes; anything else is a bug.
			if err != nil && !errors.Is(err, verr.ErrCanceled) && !errors.Is(err, verr.ErrClosed) {
				t.Fatalf("in-flight query: unexpected error %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-flight query never returned after Close")
		}
	}
	if _, err := s.QueryContext(context.Background(), `SELECT count(*) FROM big`); !errors.Is(err, verr.ErrClosed) {
		t.Fatalf("post-Close query: err = %v, want verr.ErrClosed", err)
	}
	s.Close() // idempotent

	// Leak check: goroutines return to (near) the pre-session baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after Close: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Chaos: the load generator's query mix under fault injection at the
// model-load site. Injected DFS read failures must surface as typed errors
// on individual queries — never a hang, a crash, or a poisoned cache that
// keeps failing after the faults stop.
func TestChaosServeModelLoadFaults(t *testing.T) {
	s := testSession(t, 128, 7)
	// Every query must consult DFS for the fault to be reachable.
	s.Models.SetCacheEnabled(false)
	inj := faults.New(5)
	inj.MustArm(faults.Rule{Site: faults.SiteModelLoad, Kind: faults.Error, Prob: 0.1})
	faults.Install(inj)
	defer faults.Install(nil)

	srv := New(s, Config{MaxConcurrent: 4})
	var injected, okCount atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := srv.Query(context.Background(), predictSQL)
				switch {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, faults.ErrInjected):
					injected.Add(1)
				default:
					errs <- fmt.Errorf("non-injected failure under chaos: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if injected.Load() == 0 {
		t.Fatal("fault injector never fired; chaos test exercised nothing")
	}
	if okCount.Load() == 0 {
		t.Fatal("no query survived 10% fault probability; retry-free path too fragile")
	}

	// Faults off, cache back on: the serving path must be fully healthy.
	faults.Install(nil)
	s.Models.SetCacheEnabled(true)
	res, err := srv.Query(context.Background(), predictSQL)
	if err != nil {
		t.Fatalf("post-chaos query: %v", err)
	}
	if got := res.Batch.Cols[0].Floats[0]; got != 7 {
		t.Fatalf("post-chaos prediction %v, want 7 (cache poisoned?)", got)
	}
}
