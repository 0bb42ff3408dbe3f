package yarn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
)

func newRM(t *testing.T) *ResourceManager {
	t.Helper()
	rm, err := New(Config{
		Nodes: []NodeResources{
			{Cores: 8, MemoryMB: 16000},
			{Cores: 8, MemoryMB: 16000},
		},
		Queues: map[string]float64{"db": 0.5, "analytics": 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// requestShare takes four 2-core containers, alternating over newRM's two
// nodes: a queue's whole 8-core share.
func requestShare(app *App) ([]*Container, error) {
	var out []*Container
	for i := 0; i < 4; i++ {
		c, err := app.Request(2, 1000, i%2, false)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no nodes should fail")
	}
	if _, err := New(Config{Nodes: []NodeResources{{Cores: 0, MemoryMB: 1}}}); err == nil {
		t.Fatal("zero cores should fail")
	}
	if _, err := New(Config{Nodes: []NodeResources{{1, 1}}, Queues: map[string]float64{"a": 2}}); err == nil {
		t.Fatal("share > 1 should fail")
	}
	if _, err := New(Config{Nodes: []NodeResources{{1, 1}}, Queues: map[string]float64{"a": 0.7, "b": 0.7}}); err == nil {
		t.Fatal("shares > 1 total should fail")
	}
	rm := newRM(t)
	if _, err := rm.Submit("x", "nope"); err == nil {
		t.Fatal("unknown queue should fail")
	}
	if len(rm.Queues()) != 2 {
		t.Fatal("queues")
	}
}

func TestRequestReleaseAccounting(t *testing.T) {
	rm := newRM(t)
	app, _ := rm.Submit("vertica", "db")
	c, err := app.Request(4, 8000, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node != 0 || c.Cores != 4 {
		t.Fatalf("container = %+v", c)
	}
	u := rm.Usage()
	if u.FreeCores[0] != 4 || u.QueueCores["db"] != 4 || u.Outstanding != 1 {
		t.Fatalf("usage = %+v", u)
	}
	if err := app.Release(c); err != nil {
		t.Fatal(err)
	}
	if err := app.Release(c); err == nil {
		t.Fatal("double release should fail")
	}
	u = rm.Usage()
	if u.FreeCores[0] != 8 || u.Outstanding != 0 {
		t.Fatalf("usage after release = %+v", u)
	}
}

func TestLocalityPreference(t *testing.T) {
	rm, err := New(Config{
		Nodes: []NodeResources{
			{Cores: 8, MemoryMB: 16000},
			{Cores: 8, MemoryMB: 16000},
		},
		Queues: map[string]float64{"analytics": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, _ := rm.Submit("dr", "analytics")
	c, _ := app.Request(2, 1000, 1, false)
	if c.Node != 1 {
		t.Fatalf("locality preference ignored: node %d", c.Node)
	}
	// Fill node 1; next preferred-1 request falls back to node 0.
	c2, _ := app.Request(6, 1000, 1, false)
	if c2.Node != 1 {
		t.Fatalf("node 1 had room: %+v", c2)
	}
	c3, err := app.Request(2, 1000, 1, false)
	if err != nil || c3.Node != 0 {
		t.Fatalf("fallback failed: %+v %v", c3, err)
	}
}

func TestCapacityProtectsOtherQueues(t *testing.T) {
	rm := newRM(t)
	dr, _ := rm.Submit("dr", "analytics")
	// analytics' share is 8 of 16 cores. It may take its share...
	if _, err := requestShare(dr); err != nil {
		t.Fatal(err)
	}
	// ...but not eat into db's guaranteed half while db is unused? With
	// elasticity, extra idle beyond db's guarantee is zero here (db has 8
	// reserved), so the next request must fail.
	if _, err := dr.Request(2, 1000, -1, false); err == nil {
		t.Fatal("analytics should not exceed its share while db's guarantee is reserved")
	}
	// db can still get its full share immediately.
	db, _ := rm.Submit("vertica", "db")
	if _, err := requestShare(db); err != nil {
		t.Fatalf("db blocked from its guaranteed share: %v", err)
	}
}

func TestWaitingRequestUnblocksOnRelease(t *testing.T) {
	rm := newRM(t)
	db, _ := rm.Submit("vertica", "db")
	held, err := requestShare(db)
	if err != nil {
		t.Fatal(err)
	}
	dr, _ := rm.Submit("dr", "analytics")
	if _, err := requestShare(dr); err != nil {
		t.Fatal(err)
	}
	// The db queue is fully allocated; a second db request should block
	// then succeed when the first application releases a container.
	db2, _ := rm.Submit("vertica-etl", "db")
	done := make(chan *Container)
	go func() {
		c, err := db2.Request(2, 1000, -1, true)
		if err != nil {
			t.Error(err)
		}
		done <- c
	}()
	select {
	case <-done:
		t.Fatal("request should have blocked")
	case <-time.After(20 * time.Millisecond):
	}
	_ = db.Release(held[0])
	select {
	case c := <-done:
		if c == nil {
			t.Fatal("nil container")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiting request never unblocked")
	}
}

func TestElasticityWhenOtherQueueIdle(t *testing.T) {
	rm, err := New(Config{
		Nodes:  []NodeResources{{Cores: 8, MemoryMB: 8000}},
		Queues: map[string]float64{"a": 0.25, "b": 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shares only cover half the cluster; the rest is unreserved, so queue a
	// may elastically exceed its 2-core share up to 6 cores.
	app, _ := rm.Submit("x", "a")
	if _, err := app.Request(6, 1000, -1, false); err != nil {
		t.Fatalf("elastic allocation failed: %v", err)
	}
	// But not beyond what protects b's 2 cores.
	if _, err := app.Request(2, 1000, -1, false); err == nil {
		t.Fatal("should not invade queue b's guarantee")
	}
}

func TestConcurrentRequests(t *testing.T) {
	rm, _ := New(Config{
		Nodes:  []NodeResources{{Cores: 16, MemoryMB: 64000}, {Cores: 16, MemoryMB: 64000}},
		Queues: map[string]float64{"q": 1},
	})
	app, _ := rm.Submit("x", "q")
	var wg sync.WaitGroup
	var mu sync.Mutex
	var grants []*Container
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := app.Request(1, 1000, -1, false)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			grants = append(grants, c)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(grants) != 32 {
		t.Fatalf("granted %d", len(grants))
	}
	u := rm.Usage()
	if u.FreeCores[0] != 0 || u.FreeCores[1] != 0 {
		t.Fatalf("usage = %+v", u)
	}
	for _, c := range grants {
		if err := app.Release(c); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocalityFallbackCountsMiss(t *testing.T) {
	rm, _ := New(Config{
		Nodes:  []NodeResources{{Cores: 4, MemoryMB: 4000}, {Cores: 4, MemoryMB: 4000}},
		Queues: map[string]float64{"q": 1},
	})
	app, _ := rm.Submit("x", "q")
	hits0 := telemetry.Default().Counter("yarn_locality_total", telemetry.L("preference", "hit")).Value()
	miss0 := telemetry.Default().Counter("yarn_locality_total", telemetry.L("preference", "miss")).Value()
	// Fill node 1 entirely, then prefer it: the grant lands on node 0 and is
	// recorded as a locality miss.
	if _, err := app.Request(4, 4000, 1, false); err != nil {
		t.Fatal(err)
	}
	c, err := app.Request(2, 1000, 1, false)
	if err != nil || c.Node != 0 {
		t.Fatalf("fallback grant = %+v, %v", c, err)
	}
	hits := telemetry.Default().Counter("yarn_locality_total", telemetry.L("preference", "hit")).Value() - hits0
	miss := telemetry.Default().Counter("yarn_locality_total", telemetry.L("preference", "miss")).Value() - miss0
	if hits != 1 || miss != 1 {
		t.Fatalf("locality tally hit=%d miss=%d, want 1/1", hits, miss)
	}
}

func TestInjectedRequestFaultDenies(t *testing.T) {
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteYarnRequest, Kind: faults.Error, EveryN: 1, Limit: 1})
	faults.Install(in)
	defer faults.Install(nil)

	rm := newRM(t)
	app, _ := rm.Submit("x", "db")
	if _, err := app.Request(1, 100, -1, false); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// The rule's Limit is spent; the next request succeeds.
	if _, err := app.Request(1, 100, -1, false); err != nil {
		t.Fatalf("post-fault request failed: %v", err)
	}
}

func TestBadDemands(t *testing.T) {
	rm := newRM(t)
	app, _ := rm.Submit("x", "db")
	if _, err := app.Request(0, 100, -1, false); err == nil {
		t.Fatal("zero cores should fail")
	}
	if _, err := app.Request(1, 0, -1, false); err == nil {
		t.Fatal("zero memory should fail")
	}
	if _, err := app.Request(99, 100, -1, false); err == nil {
		t.Fatal("impossible demand should fail fast with wait=false")
	}
}
