package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verticadr"
	"verticadr/internal/algos"
	"verticadr/internal/darray"
	"verticadr/internal/vft"
)

// errIncorrect marks a correctness-gate failure: the run exits non-zero and
// prints no result, whatever the timings were.
var errIncorrect = errors.New("incorrect output")

func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

// run is one workload execution: the deployment, the request stream, the
// samples, and the first round's outputs every later round must reproduce.
type run struct {
	ctx  context.Context
	wl   *workload
	ds   *dataset
	d    *deployment
	rng  *rand.Rand
	tr   *tracer // nil on the untraced pass
	host *hostKernel
	// kernel holds the host-kernel samples since the current round (or the
	// recovery phase) began; hostErr the first error taking one.
	kernel  [][nKernels]time.Duration
	hostErr error

	mu      sync.Mutex
	samples map[string][]float64

	attempted, failed atomic.Int64

	// What node 0 holds of pts (all of it on a single node, its shards'
	// share on the cluster) and the checksums the gate expects there.
	ptsLocal    int
	ptsColBits  [nFeat + 1]uint64
	ptsPredBits uint64

	x, y *darray.DArray // the round's transferred arrays, freed after the fits

	ref struct {
		glm       []float64
		kmeansObj float64
		results   map[string]string // statement → first result, bit-exact rendering
	}
	expected map[string]string // statement → reference-session result (cluster only)

	copySeq    int
	ackedRows  int64 // since set-up: what recovery must find
	ackedSumX0 float64
	maxSnaps   int64

	// State of the program's telemetry when the measured rounds began.
	ackedAtStart    int64
	roundsDone      int
	walCommitBefore histSnap
	admitWaitBefore histSnap
}

func newRun(ctx context.Context, wl *workload, ds *dataset, d *deployment, host *hostKernel, seed int64) *run {
	r := &run{ctx: ctx, wl: wl, ds: ds, d: d, host: host, samples: map[string][]float64{}}
	r.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	r.ref.results = map[string]string{}
	return r
}

func (r *run) add(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// op counts one operation and reports whether it succeeded.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		return false
	}
	return true
}

// settle runs a collection outside the timed region, so a phase starts from
// a clean heap and pays only for the garbage it makes itself, and then — the
// process idle, the heap settled — times the host kernel (host.go).
func (r *run) settle() {
	runtime.GC()
	k, err := r.host.sample()
	if err != nil && r.hostErr == nil {
		r.hostErr = fmt.Errorf("host kernel: %w", err)
	}
	r.kernel = append(r.kernel, k)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- local expectations -------------------------------------------------

// learnLocalPts reads which pts rows node 0 holds and derives the checksums
// the transfer and PREDICT phases must reproduce.
func (r *run) learnLocalPts() error {
	res, err := r.d.sess().QueryContext(r.ctx, `SELECT id FROM pts`)
	if err != nil {
		return err
	}
	ids := res.Batch.Cols[0].Ints
	r.ptsLocal = len(ids)
	if len(r.d.nodes) == 1 && r.ptsLocal != r.ds.ptsRows {
		return wrong("pts holds %d rows, loaded %d", r.ptsLocal, r.ds.ptsRows)
	}
	row := make([]float64, nFeat)
	for _, id := range ids {
		for j := range r.ds.ptsF {
			row[j] = r.ds.ptsF[j][id]
			r.ptsColBits[j] += math.Float64bits(row[j])
		}
		r.ptsColBits[nFeat] += math.Float64bits(r.ds.ptsC[id])
		r.ptsPredBits += math.Float64bits(pipeGLM.Predict(row))
	}
	return nil
}

// ---- pipeline phases ----------------------------------------------------

var (
	featCols     = []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}
	transferCols = append(append([]string{}, featCols...), "c")
)

// freeArrays drops every partition the DR workers hold. Workers never free
// transferred arrays themselves; without this each repetition would leak its
// arrays and later repetitions would pay for the growing heap.
func (r *run) freeArrays() {
	dr := r.d.sess().DR
	for i := 0; i < dr.NumWorkers(); i++ {
		w, err := dr.Worker(i)
		if err != nil {
			continue
		}
		for _, k := range w.Keys() {
			w.Delete(k)
		}
	}
	r.x, r.y = nil, nil
}

func (r *run) phaseTransfer(tcp bool) error {
	name := "transfer_rows_per_s"
	if tcp {
		name = "transfer_tcp_rows_per_s"
	}
	sp := r.tr.start("phase:"+name, nil)
	defer sp.end()
	sess := r.d.sess()
	r.settle()
	t0 := time.Now()
	var (
		frame *darray.DFrame
		stats *vft.Stats
		err   error
	)
	lsp := r.tr.start("vft.load", sp)
	if tcp {
		psize := r.ptsLocal / (sess.DR.NumWorkers() * sess.DR.InstancesPerWorker())
		frame, stats, err = vft.LoadTCPContext(r.ctx, sess.DB, sess.DR, sess.Hub, r.d.vftTCP,
			"pts", transferCols, vft.PolicyLocality, psize)
	} else {
		frame, stats, err = sess.DB2DFrameContext(r.ctx, "pts", transferCols, vft.PolicyLocality)
	}
	lsp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	asp := r.tr.start("darray.asdarray", sp)
	t1 := time.Now()
	x, err := frame.AsDArray(featCols)
	if err != nil {
		return err
	}
	y, err := frame.AsDArray([]string{"c"})
	if err != nil {
		return err
	}
	asp.end()
	el, convert := time.Since(t0), time.Since(t1)
	r.op(nil)
	r.add(name, float64(stats.Rows)/el.Seconds())
	if !tcp {
		r.add("vft.db_side_s", stats.DBSide.Seconds())
		r.add("vft.r_side_s", stats.RSide.Seconds())
		r.add("vft.bytes_per_row", float64(stats.Bytes)/float64(stats.Rows))
		r.add("vft.chunks", float64(stats.Chunks))
		r.add("darray.asdarray_s", convert.Seconds())
	} else {
		r.add("vft.network_s", stats.Network.Seconds())
	}

	// Gate: the arrays hold exactly the generated rows.
	if stats.Rows != r.ptsLocal || x.Rows() != r.ptsLocal || y.Rows() != r.ptsLocal {
		return wrong("%s moved %d rows (x %d, y %d), table holds %d", name, stats.Rows, x.Rows(), y.Rows(), r.ptsLocal)
	}
	var got [nFeat + 1]uint64
	for p := 0; p < x.NPartitions(); p++ {
		mx, err := x.Part(p)
		if err != nil {
			return err
		}
		my, err := y.Part(p)
		if err != nil {
			return err
		}
		for i := 0; i < mx.Rows; i++ {
			for j, v := range mx.Row(i) {
				got[j] += math.Float64bits(v)
			}
			got[nFeat] += math.Float64bits(my.Data[i])
		}
	}
	if got != r.ptsColBits {
		return wrong("%s: column checksums differ from the generator's", name)
	}
	if tcp {
		r.freeArrays()
	} else {
		r.x, r.y = x, y
	}
	return nil
}

func (r *run) phaseFit() error {
	sp := r.tr.start("phase:glm_fit_s", nil)
	r.settle()
	t0 := time.Now()
	glm, err := algos.GLM(r.x, r.y, algos.GLMOpts{Family: algos.Binomial, MaxIter: glmIters, Tol: 1e-300})
	el := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("glm: %w", err)
	}
	r.op(nil)
	r.add("glm_fit_s", el.Seconds())
	r.add("algos.glm_iterations", float64(glm.Iterations))
	r.add("algos.glm_iter_s", el.Seconds()/float64(glm.Iterations))
	if glm.Iterations != glmIters {
		return wrong("glm ran %d iterations, the fixed work is %d", glm.Iterations, glmIters)
	}
	if r.ref.glm == nil {
		r.ref.glm = glm.Coefficients
	}
	for j, c := range glm.Coefficients {
		if math.IsNaN(c) || math.Abs(c-r.ref.glm[j]) > 1e-6 {
			return wrong("glm coefficient %d = %v, first fit gave %v", j, c, r.ref.glm[j])
		}
	}

	sp = r.tr.start("phase:kmeans_fit_s", nil)
	r.settle()
	t0 = time.Now()
	km, err := algos.Kmeans(r.x, algos.KmeansOpts{K: kmeansK, MaxIter: kmeansIters, Tol: 1e-300, Seed: 1})
	el = time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("kmeans: %w", err)
	}
	r.op(nil)
	r.add("kmeans_fit_s", el.Seconds())
	r.add("algos.kmeans_iter_s", el.Seconds()/float64(km.Iterations))
	r.add("algos.kmeans_objective", km.Objective)
	if km.Iterations != kmeansIters {
		return wrong("kmeans ran %d iterations, the fixed work is %d", km.Iterations, kmeansIters)
	}
	if r.ref.kmeansObj == 0 {
		r.ref.kmeansObj = km.Objective
	}
	// Partition partials fold in completion order, so the last bits may
	// differ between fits; anything beyond that is a wrong answer.
	if math.Abs(km.Objective-r.ref.kmeansObj) > 1e-9*r.ref.kmeansObj {
		return wrong("kmeans objective %v, first fit gave %v", km.Objective, r.ref.kmeansObj)
	}
	r.freeArrays()
	return nil
}

func (r *run) phasePredict() error {
	sp := r.tr.start("phase:predict_rows_per_s", nil)
	defer sp.end()
	r.settle()
	var total time.Duration
	for i := 0; i < r.wl.predict; i++ {
		qsp := r.tr.start("session.query", sp)
		t0 := time.Now()
		res, err := r.d.sess().QueryContext(r.ctx, predictSQL)
		total += time.Since(t0)
		qsp.end()
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		r.op(nil)
		if res.Len() != r.ptsLocal || bitsSum(res.Batch.Cols[0].Floats) != r.ptsPredBits {
			return wrong("in-database PREDICT: %d rows or their values differ from GLMModel.Predict over %d generated rows", res.Len(), r.ptsLocal)
		}
	}
	r.add("predict_rows_per_s", float64(r.ptsLocal*r.wl.predict)/total.Seconds())
	return nil
}

// ---- serving phases -----------------------------------------------------

func asFloat(v any) (float64, bool) { f, ok := v.(float64); return f, ok }

// render prints a result bit-exactly (floats as their IEEE bits), so equal
// strings mean bitwise-equal results.
func render(rows [][]any) string {
	var sb strings.Builder
	for _, row := range rows {
		for _, v := range row {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&sb, "%x|", math.Float64bits(f))
			} else {
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func colBits(rows [][]any) (uint64, bool) {
	var s uint64
	for _, row := range rows {
		f, ok := asFloat(row[0])
		if len(row) != 1 || !ok {
			return 0, false
		}
		s += math.Float64bits(f)
	}
	return s, true
}

func (r *run) pointOp(cl *verticadr.Client, ctx context.Context, rng *rand.Rand) (time.Duration, error) {
	id := rng.Intn(r.ds.eventsRows)
	t0 := time.Now()
	res, err := cl.Execute(ctx, "point", r.ds.events.k[id])
	el := time.Since(t0)
	if !r.op(err) {
		return el, nil
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0] != r.ds.events.x[0][id] || res.Rows[0][1] != r.ds.events.x[1][id] {
		return el, wrong("point k=%d returned %v, generated row %d has x0=%v x1=%v", r.ds.events.k[id], res.Rows, id, r.ds.events.x[0][id], r.ds.events.x[1][id])
	}
	return el, nil
}

func (r *run) scoreOp(cl *verticadr.Client, ctx context.Context, rng *rand.Rand) (time.Duration, error) {
	lo := rng.Intn(r.ds.eventsRows - scoreSpan)
	t0 := time.Now()
	res, err := cl.Execute(ctx, "score", int64(lo), int64(lo+scoreSpan))
	el := time.Since(t0)
	if !r.op(err) {
		return el, nil
	}
	got, ok := colBits(res.Rows)
	if !ok || len(res.Rows) != scoreSpan || got != r.ds.events.scorePrefix[lo+scoreSpan]-r.ds.events.scorePrefix[lo] {
		return el, wrong("score [%d,%d) returned %d rows that differ from GLMModel.Predict", lo, lo+scoreSpan, len(res.Rows))
	}
	return el, nil
}

func (r *run) pointPredictOp(cl *verticadr.Client, ctx context.Context, rng *rand.Rand) (time.Duration, error) {
	// A small hot set of keys, so the one-shot plan cache both hits and misses.
	id := rng.Intn(64) * (r.ds.eventsRows / 64)
	t0 := time.Now()
	res, err := cl.Query(ctx, fmt.Sprintf(pointPredictSQL, r.ds.events.k[id]))
	el := time.Since(t0)
	if !r.op(err) {
		return el, nil
	}
	got, ok := colBits(res.Rows)
	if !ok || len(res.Rows) != 1 || got != r.ds.events.scorePrefix[id+1]-r.ds.events.scorePrefix[id] {
		return el, wrong("point PREDICT k=%d returned %v", r.ds.events.k[id], res.Rows)
	}
	return el, nil
}

// stmtOp executes a parameterless prepared statement and holds its result to
// the first one seen (and, on the cluster, to the single-node reference).
func (r *run) stmtOp(cl *verticadr.Client, ctx context.Context, stmt string, args ...any) (time.Duration, error) {
	t0 := time.Now()
	res, err := cl.Execute(ctx, stmt, args...)
	el := time.Since(t0)
	if !r.op(err) {
		return el, nil
	}
	got := render(res.Rows)
	r.mu.Lock()
	first, seen := r.ref.results[stmt]
	if !seen {
		r.ref.results[stmt] = got
	}
	r.mu.Unlock()
	if !seen {
		if want, ok := r.expected[stmt]; ok && got != want {
			return el, wrong("%s: routed result is not bitwise equal to the single-node session's", stmt)
		}
		return el, r.checkAggregate(stmt, res.Rows)
	}
	if got != first {
		return el, wrong("%s: result changed between executions", stmt)
	}
	return el, nil
}

func (r *run) phaseLatency(metric string, n int, fn func(*verticadr.Client, context.Context, *rand.Rand) (time.Duration, error)) error {
	sp := r.tr.start("phase:"+metric, nil)
	defer sp.end()
	r.settle()
	for i := 0; i < n; i++ {
		ctx, done := r.tr.request(r.ctx, metric, sp, i)
		el, err := fn(r.d.clients[0], ctx, r.rng)
		done()
		if err != nil {
			return err
		}
		r.add(metric, ms(el))
	}
	return nil
}

// pointBlock is how many point lookups share one sample of the echo loop.
const pointBlock = 25

// phasePoint is phaseLatency for the point lookup, whose samples are scaled
// block by block by the echo loop's round trips taken just before them
// (byEchoBlock) before the round's factor reaches them.
func (r *run) phasePoint() error {
	const metric = "point_p50_ms"
	sp := r.tr.start("phase:"+metric, nil)
	defer sp.end()
	r.settle()
	factor := 1.0
	for i := 0; i < r.wl.point; i++ {
		if i%pointBlock == 0 {
			trip, err := r.host.echo.trip()
			if err != nil {
				return fmt.Errorf("host echo loop: %w", err)
			}
			factor = float64(trip) / float64(kernelNominal[2])
		}
		ctx, done := r.tr.request(r.ctx, metric, sp, i)
		el, err := r.pointOp(r.d.clients[0], ctx, r.rng)
		done()
		if err != nil {
			return err
		}
		r.add("raw:"+metric, ms(el))
		r.add(metric, ms(el)/factor)
	}
	return nil
}

// phaseThroughput runs stmts n times each and records table rows per second
// of summed latency.
func (r *run) phaseThroughput(metric, latencies string, n int, stmts ...string) error {
	sp := r.tr.start("phase:"+metric, nil)
	defer sp.end()
	r.settle()
	var total time.Duration
	for i := 0; i < n; i++ {
		for _, stmt := range stmts {
			ctx, done := r.tr.request(r.ctx, metric, sp, 0)
			el, err := r.stmtOp(r.d.clients[0], ctx, stmt)
			done()
			if err != nil {
				return err
			}
			total += el
			r.add(latencies, ms(el))
		}
	}
	r.add(metric, float64(r.ds.eventsRows*n*len(stmts))/total.Seconds())
	return nil
}

func (r *run) phaseFetch() error {
	sp := r.tr.start("phase:fetch_rows_per_s", nil)
	defer sp.end()
	r.settle()
	var total time.Duration
	for i := 0; i < r.wl.fetch; i++ {
		ctx, done := r.tr.request(r.ctx, "fetch_rows_per_s", sp, 0)
		t0 := time.Now()
		res, err := r.d.clients[0].Execute(ctx, "fetch")
		total += time.Since(t0)
		done()
		if !r.op(err) {
			continue
		}
		got, ok := colBits(res.Rows)
		if !ok || len(res.Rows) != r.ds.eventsRows || got != r.ds.events.scorePrefix[r.ds.eventsRows] {
			return wrong("fetch delivered %d rows that differ from GLMModel.Predict over %d generated rows", len(res.Rows), r.ds.eventsRows)
		}
	}
	r.add("fetch_rows_per_s", float64(r.ds.eventsRows*r.wl.fetch)/total.Seconds())
	return nil
}

// mixPattern is the class of every hundredth of the mix, shuffled once with a
// constant: 85 point, 10 score, 4 point-PREDICT, 1 GROUP BY. Every round of
// every run issues the same classes in the same order.
var mixPattern = func() [100]byte {
	var p [100]byte
	for i := range p {
		switch {
		case i < 85:
			p[i] = 'p'
		case i < 95:
			p[i] = 's'
		case i < 99:
			p[i] = 'q'
		default:
			p[i] = 'a'
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}()

func (r *run) phaseMix() error {
	sp := r.tr.start("phase:mix_qps", nil)
	defer sp.end()
	r.settle()
	var wg sync.WaitGroup
	errs := make([]error, len(r.d.clients))
	seeds := []int64{r.rng.Int63(), r.rng.Int63()}
	t0 := time.Now()
	for c, cl := range r.d.clients {
		wg.Add(1)
		go func(c int, cl *verticadr.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seeds[c]))
			for i := 0; i < r.wl.mixOps; i++ {
				var el time.Duration
				var err error
				switch mixPattern[(i+50*c)%len(mixPattern)] {
				case 'p':
					el, err = r.pointOp(cl, r.ctx, rng)
				case 's':
					el, err = r.scoreOp(cl, r.ctx, rng)
				case 'q':
					el, err = r.pointPredictOp(cl, r.ctx, rng)
				default:
					el, err = r.stmtOp(cl, r.ctx, "agg_grp")
				}
				if err != nil {
					errs[c] = err
					return
				}
				r.add("client.mix_ms", ms(el))
			}
		}(c, cl)
	}
	wg.Wait()
	el := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	r.add("mix_qps", float64(len(r.d.clients)*r.wl.mixOps)/el.Seconds())
	return nil
}

// ---- ingest phases ------------------------------------------------------

func (r *run) copyOp(cl *verticadr.Client, ctx context.Context) (time.Duration, bool) {
	r.mu.Lock()
	t := r.copySeq % len(r.ds.copyTemplates)
	r.copySeq++
	r.mu.Unlock()
	t0 := time.Now()
	err := cl.Load(ctx, "events_in", r.ds.copyTemplates[t])
	el := time.Since(t0)
	if !r.op(err) {
		return el, false
	}
	r.mu.Lock()
	r.ackedRows += copyRows
	r.ackedSumX0 += r.ds.copySumX0[t]
	r.mu.Unlock()
	return el, true
}

func (r *run) phaseCopy() error {
	sp := r.tr.start("phase:copy_rows_per_s", nil)
	defer sp.end()
	r.settle()
	var total time.Duration
	acked := 0
	for i := 0; i < r.wl.copyBurst; i++ {
		ctx, done := r.tr.request(r.ctx, "copy_rows_per_s", sp, i)
		el, ok := r.copyOp(r.d.clients[0], ctx)
		done()
		total += el
		if ok {
			acked++
			r.add("client.copy_ack_ms", ms(el))
		}
	}
	r.add("copy_rows_per_s", float64(acked*copyRows)/total.Seconds())
	return nil
}

// phaseReadBesideWrite paces a writer open-loop (one COPY every
// pacerInterval, its lateness against the schedule recorded) while a second
// client reads the table being written, closed-loop.
func (r *run) phaseReadBesideWrite() error {
	sp := r.tr.start("phase:read_p50_ms", nil)
	defer sp.end()
	r.settle()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		start := time.Now()
		for j := 0; j < r.wl.pacedCopies; j++ {
			due := start.Add(time.Duration(j*pacerInterval) * time.Millisecond)
			time.Sleep(time.Until(due))
			late := time.Since(due)
			if _, ok := r.copyOp(r.d.clients[1], r.ctx); ok {
				r.add("client.pacer_late_ms", ms(late))
			}
		}
		time.Sleep(time.Until(start.Add(time.Duration(r.wl.pacedCopies*pacerInterval) * time.Millisecond)))
	}()
	if r.tr != nil {
		// Snapshots pinned at once, sampled while readers and the writer overlap.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
					if n := gauge("txn_active_snapshots"); n > r.maxSnaps {
						r.maxSnaps = n
					}
				}
			}
		}()
	}
	var err error
	for err == nil {
		select {
		case <-stop:
			wg.Wait()
			return nil
		default:
		}
		var el time.Duration
		el, err = r.stmtOp(r.d.clients[0], r.ctx, "read", int64(r.ds.inRows))
		r.add("read_p50_ms", ms(el))
	}
	wg.Wait()
	return err
}

// scaleSince rescales the end-to-end samples recorded after marks to the
// host's nominal speed, each metric by its class's factor, and keeps the
// measured values under "raw:<name>". A byEchoBlock metric kept them where
// it was sampled.
func (r *run) scaleSince(marks map[string]int, compute, socket float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range endToEnd {
		s := r.samples[m.Name]
		for i := marks[m.Name]; i < len(s); i++ {
			if m.Scale != byEchoBlock {
				r.samples["raw:"+m.Name] = append(r.samples["raw:"+m.Name], s[i])
			}
			s[i] = atNominal(s[i], m, m.Scale.factor(compute, socket))
		}
	}
}

func (r *run) marks() map[string]int {
	marks := map[string]int{}
	for _, m := range endToEnd {
		marks[m.Name] = len(r.samples[m.Name])
	}
	return marks
}

// round executes every phase of the workload once and rescales the round's
// samples by the median of the kernel samples its phases took.
func (r *run) round() error {
	t0 := time.Now()
	marks := r.marks()
	r.kernel = r.kernel[:0]
	steps := []func() error{
		func() error { return r.phaseTransfer(false) },
		r.phaseFit,
		func() error { return r.phaseTransfer(true) },
		r.phasePredict,
		r.phasePoint,
		func() error { return r.phaseLatency("score_p50_ms", r.wl.score, r.scoreOp) },
		func() error {
			return r.phaseThroughput("agg_rows_per_s", "client.agg_ms", r.wl.aggEach, "agg_grp", "agg_region")
		},
		func() error { return r.phaseThroughput("join_rows_per_s", "client.join_ms", r.wl.join, "join") },
		r.phaseFetch,
		r.phaseCopy,
		r.phaseReadBesideWrite,
		r.phaseMix,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if r.hostErr != nil {
		return r.hostErr
	}
	compute, socket := slowdown(r.kernel)
	r.scaleSince(marks, compute, socket)
	r.add("proc.host_slowdown", compute)
	for k, name := range [nKernels]string{"host.sum_ms", "host.pingpong_ms", "host.echo_ms"} {
		for _, s := range r.kernel {
			r.add(name, ms(s[k]))
		}
	}
	r.add("round_s", time.Since(t0).Seconds())
	r.roundsDone++
	return nil
}
