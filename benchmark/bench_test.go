package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"regexp"
	"testing"
	"time"
)

// contractFile mirrors the root BENCHMARK.json.
type contractFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkJSON(t *testing.T) contractFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj contractFile
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// inTempDir runs the test from a scratch directory, because a run creates
// its work and output directories under the working directory.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

// TestBenchmarkJSONMatchesSpec pins the lists later issues refer to: the
// names, units, directions and bounds in BENCHMARK.json are the program's.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d) || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] %q: bad or repeated name, or bound %v outside (0, 0.25]", i, m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d) {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per_layer[%d] %q: bad or repeated name", i, m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload at 1/50 scale with two rounds, untraced and
// traced, and checks that each pass emits exactly its metric list, every
// value finite and carrying its unit, with no failed operation.
func TestSmoke(t *testing.T) {
	inTempDir(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name
			defs := endToEnd
			if traced {
				name, defs = name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				rec, res, err := execute(context.Background(), options{
					workload: wl.name, seed: 7, seconds: 1, scale: 50, rounds: 2, trace: traced, outDir: "out"})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if traced {
					if fi, err := os.Stat(rec.TraceFile); err != nil || fi.Size() == 0 {
						t.Errorf("span file %q: %v", rec.TraceFile, err)
					}
				}
			})
		}
	}
	if left, _ := os.ReadDir("."); len(left) != 1 || left[0].Name() != "out" {
		t.Errorf("run left %v behind, want only the output directory", left)
	}
}

// TestSetUpErrorReleasesEverything forces set-up to fail — before anything
// is started, and after the node is serving — and requires the error back,
// not a panic, with nothing left listening.
func TestSetUpErrorReleasesEverything(t *testing.T) {
	inTempDir(t)
	ctx := context.Background()
	wl := findWorkload("ingest_durable").scaled(50)
	ds := generate(7, wl.sizes)
	if d, err := setUp(ctx, wl, ds, "no-such-dir"); err == nil || d != nil {
		t.Fatalf("set-up under a missing work directory returned %v, %v; want nil and an error", d, err)
	}

	statements["broken"] = `SELEC`
	defer delete(statements, "broken")
	if d, err := setUp(ctx, wl, ds, "."); err == nil || d != nil {
		t.Fatalf("set-up with a statement that cannot be prepared returned %v, %v; want nil and an error", d, err)
	}
	dep := &deployment{wl: wl}
	err := dep.build(ctx, ds, ".")
	if err == nil || len(dep.addrs) == 0 {
		t.Fatalf("build returned %v with listeners %v; want an error after the listener is up", err, dep.addrs)
	}
	dep.Close()
	if c, err := net.DialTimeout("tcp", dep.addrs[0], time.Second); err == nil {
		c.Close()
		t.Errorf("listener %s still accepts connections after Close", dep.addrs[0])
	}
}

// TestGateRejectsWrongOutput corrupts an expected value and requires the
// round to fail: a mismatch is an error, never a metric.
func TestGateRejectsWrongOutput(t *testing.T) {
	inTempDir(t)
	ctx := context.Background()
	wl := findWorkload("serve_single").scaled(50)
	ds := generate(7, wl.sizes)
	d, err := setUp(ctx, wl, ds, ".")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	host, err := newHostKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	r := newRun(ctx, wl, ds, d, host, 7)
	if err := r.learnLocalPts(); err != nil {
		t.Fatal(err)
	}
	if err := r.round(); err != nil {
		t.Fatalf("clean round: %v", err)
	}
	for i := range ds.events.x[0] {
		ds.events.x[0][i] += 0.5 // what the gate expects no longer matches what was loaded
	}
	if err := r.round(); !errors.Is(err, errIncorrect) {
		t.Fatalf("round over corrupted expectations returned %v, want errIncorrect", err)
	}
}
