// Command benchmark is the repository's one repeatable benchmark: four
// workloads, each a fixed amount of work executed as interleaved rounds, a
// correctness gate on every output, fifteen end-to-end metrics and a
// per-layer ladder. See README.md beside this file.
//
//	go run ./benchmark --workload serve_single --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"verticadr/internal/core"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// Set by the smoke test only; a run from the command line always does the
	// fixed work its --seconds sizes.
	scale  int    // divide rows and repetitions
	rounds int    // override the derived round count
	outDir string // where the span file goes
}

// metricOut is one metric of the result line, in the driver's format.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// detail is one metric of the run record: the value with what it rests on.
type detail struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Raw    float64 `json:"as_measured,omitempty"` // median before scaling to the host's nominal speed
	Spread float64 `json:"iqr_share,omitempty"`   // quartile spread of the n samples over their median
	Bound  float64 `json:"bound,omitempty"`
	Own    bool    `json:"own,omitempty"`
	HighP  float64 `json:"high_percentile,omitempty"`
	HighV  float64 `json:"high_value,omitempty"`
	Better string  `json:"better"`
}

// record is the run's self-description, printed before the result line.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Tables     map[string]int    `json:"table_rows"`
	Rounds     int               `json:"rounds"`
	WallS      float64           `json:"wall_s"`
	RoundS     float64           `json:"round_s"`        // median wall time of a measured round
	Slowdown   float64           `json:"host_slowdown"`  // median over the rounds of a round's compute factor (host.go)
	KernelMS   [nKernels]float64 `json:"host_kernel_ms"` // median time of each host kernel: the sum, the ping-pong, the echo trip
	Attempted  int64             `json:"attempted_ops"`
	Failed     int64             `json:"failed_ops"`
	Metrics    map[string]detail `json:"metrics"`
	TraceFile  string            `json:"trace_file,omitempty"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	o := options{outDir: ".bench_out"}
	trace := 0
	flag.StringVar(&o.workload, "workload", "", "workload name: paper_pipeline, serve_single, ingest_durable, cluster_routed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured time the fixed work is sized for")
	flag.IntVar(&trace, "trace", 0, "1: traced pass, per-layer metrics and a span file; 0: end-to-end metrics")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	o.trace = trace != 0
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rec, res, err := execute(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printTable(os.Stdout, rec)
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(rec)
	_ = enc.Encode(res)
}

// execute runs one workload and returns its record and result. Every
// resource it creates — listeners, connections, sessions, the work directory
// — is released on every return path.
func execute(ctx context.Context, o options) (*record, *result, error) {
	base := findWorkload(o.workload)
	if base == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, nil, fmt.Errorf("--seconds must be at least 1")
	}
	wl := base.scaled(o.scale)
	start := time.Now()

	// All files live under the working directory (the driver's checkout).
	workDir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(workDir)

	rounds := max(int(math.Round(float64(o.seconds)/wl.roundSeconds)), minRounds)
	setUps := 3
	if o.trace {
		// The traced pass reports no end-to-end metric: one set-up, three
		// untraced rounds as the baseline of the overhead figure, then as
		// many traced rounds.
		rounds, setUps = 3, 1
	}
	if o.rounds > 0 {
		rounds = o.rounds
	}

	// setup_s: generate, start, load, index, deploy, dial, prepare — taken
	// several times, because one sample of a second-long action is noise.
	var (
		ds *dataset
		d  *deployment
		// at the host's nominal speed like every round (host.go), and as measured
		setupS, rawSetupS []float64
	)
	host, err := newHostKernel()
	if err != nil {
		return nil, nil, fmt.Errorf("host kernel: %w", err)
	}
	defer host.Close()
	defer func() { d.Close() }()
	for i := 0; i < setUps; i++ {
		if d != nil {
			d.Close()
			_ = os.RemoveAll(d.dataDir)
		}
		runtime.GC()
		t0 := time.Now()
		ds = generate(o.seed, wl.sizes)
		if d, err = setUp(ctx, wl, ds, workDir); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		el := time.Since(t0).Seconds()
		runtime.GC()
		var ks [3][nKernels]time.Duration
		for j := range ks {
			if ks[j], err = host.sample(); err != nil {
				return nil, nil, fmt.Errorf("host kernel: %w", err)
			}
		}
		f, _ := slowdown(ks[:])
		setupS, rawSetupS = append(setupS, el/f), append(rawSetupS, el)
	}

	r := newRun(ctx, wl, ds, d, host, o.seed)
	if err := r.learnLocalPts(); err != nil {
		return nil, nil, err
	}
	if wl.clustered {
		if err := r.buildReference(); err != nil {
			return nil, nil, fmt.Errorf("reference session: %w", err)
		}
	}

	// Warm-up: one full round whose samples are dropped (caches fill, pools
	// and connections reach steady state) but whose outputs are checked.
	if err := r.round(); err != nil {
		return nil, nil, fmt.Errorf("warm-up round: %w", err)
	}
	r.samples = map[string][]float64{}
	r.attempted.Store(0)
	r.failed.Store(0)
	r.samples["setup_s"], r.samples["raw:setup_s"] = setupS, rawSetupS

	before := snapshotCounters()
	procBefore := readProc()
	r.ackedAtStart, r.roundsDone = r.ackedRows, 0
	r.walCommitBefore = snapHist("wal_commit_seconds")
	r.admitWaitBefore = snapHist("server_wait_seconds")
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := r.round(); err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i+1, err)
		}
	}

	var layer map[string]float64
	traceFile := ""
	if o.trace {
		untraced := median(r.samples["round_s"])
		r.tr = newTracer()
		r.samples["round_s"] = nil
		for i := 0; i < rounds; i++ {
			if err := r.round(); err != nil {
				return nil, nil, fmt.Errorf("traced round %d: %w", i+1, err)
			}
			r.tr.adoptProgramSpans()
		}
		traced := median(r.samples["round_s"])
		if layer, err = r.layerMetrics(before, procBefore, workDir); err != nil {
			return nil, nil, fmt.Errorf("layer probes: %w", err)
		}
		layer["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, nil, err
		}
		traceFile = filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.jsonl", wl.name, o.seed))
		if err := r.tr.write(traceFile); err != nil {
			return nil, nil, err
		}
		r.reportLadder(os.Stderr)
	}

	if err := r.phaseRecovery(workDir, layer); err != nil {
		return nil, nil, err
	}

	// The cluster must have served everything without a retry, a failover or
	// a stale replica: any of them means a peer misbehaved.
	after := snapshotCounters().since(before)
	if after["cl_retries"]+after["cl_failovers"]+after["cl_stale"] != 0 {
		return nil, nil, wrong("cluster retried %d, failed over %d, marked %d replicas stale",
			after["cl_retries"], after["cl_failovers"], after["cl_stale"])
	}

	rec := &record{
		Workload: wl.name, Seed: o.seed, Traced: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Tables:    map[string]int{"pts": ds.ptsRows, "events": ds.eventsRows, "events_in": ds.inRows, "dim": ds.dimRows},
		Rounds:    rounds,
		Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: map[string]detail{}, TraceFile: traceFile,
	}
	res := &result{Correct: true, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricOut{}}
	if o.trace {
		for _, m := range perLayer {
			v, ok := layer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("per-layer metric %s has no finite value", m.Name)
			}
			rec.Metrics[m.Name] = detail{Value: v, Unit: m.Unit, N: 1, Better: better(m)}
			res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			s := r.samples[m.Name]
			if len(s) == 0 {
				return nil, nil, fmt.Errorf("end-to-end metric %s has no samples", m.Name)
			}
			v := median(s)
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, nil, fmt.Errorf("end-to-end metric %s = %v", m.Name, v)
			}
			dt := detail{Value: v, Unit: m.Unit, N: len(s), Bound: m.Bound, Own: wl.owns(m.Name), Better: better(m),
				Raw: r.med("raw:" + m.Name)}
			if sv := sorted(s); len(sv) >= 4 {
				dt.Spread = (quantile(sv, 0.75) - quantile(sv, 0.25)) / v
			}
			if p, pv := highPercentile(s); p > 0 {
				dt.HighP, dt.HighV = p, pv
			}
			rec.Metrics[m.Name] = dt
			res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		}
	}
	rec.WallS, rec.RoundS = time.Since(start).Seconds(), r.med("round_s")
	rec.Slowdown = r.med("proc.host_slowdown")
	rec.KernelMS = [nKernels]float64{r.med("host.sum_ms"), r.med("host.pingpong_ms"), r.med("host.echo_ms")}
	return rec, res, nil
}

// benchmarkJSON renders the contract file from the program's own lists, so
// the two cannot drift: `go run ./benchmark --describe > BENCHMARK.json`.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, better(m), m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, better(m)})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}

func better(m metricDef) string {
	if m.Higher {
		return "higher"
	}
	return "lower"
}

func (wl *workload) owns(metric string) bool {
	for _, m := range wl.own {
		if m == metric {
			return true
		}
	}
	return false
}

// phaseRecovery times redo recovery: a durable node that was closed without
// a checkpoint is reopened several times; every reopen replays the same log
// and must return exactly the rows that were acknowledged. The durable
// workload restarts its own node, whose log holds the run's commits. The
// other deployments keep no log, so there recovery_s is taken at a reduced
// size on a scratch durable node (scratchLog).
func (r *run) phaseRecovery(workDir string, layer map[string]float64) error {
	const q = `SELECT count(*) AS n, sum(x0) AS s FROM events_in`
	dir := r.d.dataDir
	// Exact expectations: preloaded plus acknowledged rows, and their x0
	// values, which are dyadic and therefore sum without rounding.
	wantN, wantS := int64(r.ds.inRows), 0.0
	for _, v := range r.ds.in.x[0] {
		wantS += v
	}
	if r.wl.durable {
		wantN, wantS = wantN+r.ackedRows, wantS+r.ackedSumX0
		live, err := r.d.sess().QueryContext(r.ctx, q)
		if err != nil {
			return err
		}
		liveN, liveS := live.Batch.Cols[0].Ints[0], live.Batch.Cols[1].Floats[0]
		if liveN != wantN || liveS != wantS {
			return wrong("live events_in: count %d sum(x0) %v, acknowledged %d and %v", liveN, liveS, wantN, wantS)
		}
		r.d.Close()
	} else {
		var err error
		if dir, err = os.MkdirTemp(workDir, "recover-"); err != nil {
			return err
		}
		n, s, err := r.scratchLog(dir)
		if err != nil {
			return fmt.Errorf("scratch durable node: %w", err)
		}
		wantN, wantS = wantN+n, wantS+s
	}
	r.kernel = r.kernel[:0]
	marks := r.marks()
	for i := 0; i < r.wl.reopens; i++ {
		r.settle()
		t0 := time.Now()
		sess, err := core.Start(sessionConfig(r.wl, dir))
		el := time.Since(t0)
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i+1, err)
		}
		res, err := sess.QueryContext(r.ctx, q)
		info := sess.DB.RecoveryInfo()
		sess.Close()
		r.op(err)
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i+1, err)
		}
		n, s := res.Batch.Cols[0].Ints[0], res.Batch.Cols[1].Floats[0]
		if n != wantN || s != wantS {
			return wrong("after recovery %d: count %d sum(x0) %v, acknowledged %d and %v", i+1, n, s, wantN, wantS)
		}
		r.add("recovery_s", el.Seconds())
		if info != nil && info.Replay.Elapsed > 0 {
			r.add("wal.replay_mb_per_s", float64(info.Replay.Bytes)/(1<<20)/info.Replay.Elapsed.Seconds())
		}
	}
	if r.hostErr != nil {
		return r.hostErr
	}
	compute, socket := slowdown(r.kernel)
	r.scaleSince(marks, compute, socket)
	if layer != nil {
		layer["wal.replay_mb_per_s"] = r.med("wal.replay_mb_per_s")
	}
	return nil
}

// scratchLog starts a durable node in dir, preloads and checkpoints
// events_in, commits the workload's scratchCommits COPYs of copyRows rows
// after the checkpoint and closes the node. It returns the rows committed
// after the preload and the sum of their x0.
func (r *run) scratchLog(dir string) (rows int64, sumX0 float64, err error) {
	sess, err := core.Start(sessionConfig(r.wl, dir))
	if err != nil {
		return 0, 0, err
	}
	defer sess.Close()
	in := &r.ds.in
	if err := sess.ExecContext(r.ctx, eventsInDDL); err != nil {
		return 0, 0, err
	}
	if err := sess.Load("events_in", in.batch(0, r.ds.inRows)); err != nil {
		return 0, 0, err
	}
	if _, err := sess.Checkpoint(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < r.wl.scratchCommits; i++ {
		lo := i * copyRows % (r.ds.inRows - copyRows)
		if err := sess.Load("events_in", in.batch(lo, lo+copyRows)); err != nil {
			return 0, 0, err
		}
		rows += copyRows
		for _, v := range in.x[0][lo : lo+copyRows] {
			sumX0 += v
		}
	}
	return rows, sumX0, nil
}
