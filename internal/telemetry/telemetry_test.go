package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// N goroutines hammer the same counter, gauge and histogram children
// (including label-resolved lookups racing with creation); totals must be
// exact. Run under -race.
func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("ops_total", L("op", "scan")).Inc()
				r.Gauge("inflight").Add(1)
				r.Histogram("latency_seconds", nil).Observe(0.001)
				r.Gauge("inflight").Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", L("op", "scan")).Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	h := r.Histogram("latency_seconds", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if math.Abs(h.Sum()-workers*perWorker*0.001) > 1e-6 {
		t.Fatalf("histogram sum = %g", h.Sum())
	}
}

func TestSeriesIdentityAndDump(t *testing.T) {
	r := NewRegistry()
	// Label order must not matter for identity.
	a := r.Counter("x_total", L("b", "2"), L("a", "1"))
	b := r.Counter("x_total", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Add(7)
	r.Gauge("g").Set(-3)
	js, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snaps []SeriesSnapshot
	if err := json.Unmarshal(js, &snaps); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	// The two series above plus the built-in telemetry_spans_dropped counter
	// every registry carries for its span ring buffer.
	if len(snaps) != 3 {
		t.Fatalf("want 3 series, got %d", len(snaps))
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || !math.IsInf(bounds[2], 1) {
		t.Fatalf("bounds = %v", bounds)
	}
	// Cumulative: <=1: 1, <=10: 2, +Inf: 3.
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 3 {
		t.Fatalf("cumulative counts = %v", counts)
	}
}

func TestResetKeepsChildren(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(5)
	sp := r.Spans().StartSpan("work")
	sp.End()
	r.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter survived reset: %d", c.Value())
	}
	if len(r.Spans().Export()) != 0 {
		t.Fatal("spans survived reset")
	}
	c.Inc() // the same child keeps working after reset
	if r.Counter("n").Value() != 1 {
		t.Fatal("child identity lost across reset")
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	l := NewSpanLog(nil)
	root := l.StartSpan("query", L("sql", "SELECT 1"))
	child := root.StartChild("scan")
	child.SetAttr("rows", "100")
	child.SetAttr("rows", "200") // overwrite, not duplicate
	child.End()
	root.End()
	recs := l.Export()
	if len(recs) != 2 {
		t.Fatalf("want 2 spans, got %d", len(recs))
	}
	if recs[1].Parent != recs[0].ID {
		t.Fatalf("child parent = %d, want %d", recs[1].Parent, recs[0].ID)
	}
	if len(recs[1].Attrs) != 1 || recs[1].Attrs[0].Value != "200" {
		t.Fatalf("attrs = %v", recs[1].Attrs)
	}
	out := l.String()
	if !strings.Contains(out, "query") || !strings.Contains(out, "  scan") {
		t.Fatalf("tree render wrong:\n%s", out)
	}
}

// A fake clock stands in for a simulation: spans must report clock time, not
// wall time (the simnet-driven case is covered end-to-end in
// internal/bench's virtual-span test).
func TestSpanUsesPluggableClock(t *testing.T) {
	var virtual time.Duration
	r := NewRegistry()
	r.SetClock(ClockFunc(func() time.Duration { return virtual }))
	sp := r.Spans().StartSpan("phase")
	virtual = 42 * time.Second // "sleep" 42 virtual seconds instantly
	if d := sp.End(); d != 42*time.Second {
		t.Fatalf("span duration = %v, want 42s", d)
	}
	// Swapping back to wall time affects subsequent spans.
	r.SetClock(nil)
	sp2 := r.Spans().StartSpan("wall")
	if d := sp2.End(); d > time.Second {
		t.Fatalf("wall span absurdly long: %v", d)
	}
}

func TestConcurrentSpans(t *testing.T) {
	l := NewSpanLog(nil)
	var wg sync.WaitGroup
	root := l.StartSpan("root")
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s := root.StartChild("child")
				s.SetAttr("j", "x")
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(l.Export()); got != 1+8*500 {
		t.Fatalf("span count = %d", got)
	}
}

// Looking up an existing series of at most one label returns the series
// every other spelling of it returns, and costs no allocation: no ID is
// rendered. The snapshot holds such a series once, under its one name.
func TestQuickLookupSamePointerNoAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", L("op", "scan"))
	g := r.Gauge("inflight")
	h := r.Histogram("wait_seconds", []float64{1, 2}, L("kind", "q"))
	multi := r.Counter("x_total", L("b", "2"), L("a", "1"))
	if r.Counter("ops_total", L("op", "scan")) != c || r.Gauge("inflight") != g ||
		r.Histogram("wait_seconds", nil, L("kind", "q")) != h || r.Counter("x_total", L("a", "1"), L("b", "2")) != multi {
		t.Fatal("a lookup returned a different series")
	}
	op := "scan"
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("ops_total", L("op", op)).Inc()
		r.Gauge("inflight").Add(1)
		r.Histogram("wait_seconds", nil, L("kind", "q")).Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("quick lookups: %v allocs/op, want 0", allocs)
	}
	// SnapshotJSON cannot carry a histogram's +Inf bound: a registry of
	// counters.
	r = NewRegistry()
	r.Counter("ops_total", L("op", "scan")).Add(2)
	r.Counter("ops_total", L("op", op)).Inc()
	js, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := `[
  {
    "name": "ops_total{op=\"scan\"}",
    "kind": "counter",
    "value": 3
  },
  {
    "name": "telemetry_spans_dropped",
    "kind": "counter",
    "value": 0
  }
]`
	if string(js) != wantJSON {
		t.Fatalf("snapshot JSON:\n%s\nwant:\n%s", js, wantJSON)
	}
}
