package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"verticadr"
	"verticadr/internal/algos"
	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/linalg"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/vertica"
	"verticadr/internal/vft"
)

// Per-layer metrics: every module measured from outside, by timing calls
// into its public functions or by differencing the counters it already
// keeps. They come from the traced pass only and carry no bound.
var perLayer = []metricDef{
	// client (root verticadr): the tails behind the end-to-end medians.
	{Name: "client.point_p99_ms", Unit: "ms"},
	{Name: "client.score_p99_ms", Unit: "ms"},
	{Name: "client.agg_p90_ms", Unit: "ms"},
	{Name: "client.join_p90_ms", Unit: "ms"},
	{Name: "client.copy_ack_p50_ms", Unit: "ms"},
	{Name: "client.copy_ack_p99_ms", Unit: "ms"},
	{Name: "client.mix_p99_ms", Unit: "ms"},
	{Name: "client.pacer_late_ms", Unit: "ms"},
	// server
	{Name: "server.ping_rtt_us", Unit: "us"},
	{Name: "server.exec_point_us", Unit: "us"},
	{Name: "server.exec_agg_ms", Unit: "ms"},
	{Name: "server.exec_fetch_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "server.wire_point_us", Unit: "us"},
	{Name: "server.wire_fetch_share", Unit: "ratio"},
	{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Higher: true},
	{Name: "server.admit_wait_ms", Unit: "ms"},
	{Name: "server.shed_total", Unit: "count"},
	// sqlparse / plan
	{Name: "sqlparse.parse_us", Unit: "us"},
	{Name: "plan.build_point_us", Unit: "us"},
	{Name: "plan.build_join_us", Unit: "us"},
	// sqlexec
	{Name: "sqlexec.point_us", Unit: "us"},
	{Name: "sqlexec.agg_int_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "sqlexec.agg_dict_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "sqlexec.join_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "sqlexec.agg_allocs_per_op", Unit: "count"},
	{Name: "sqlexec.join_allocs_per_op", Unit: "count"},
	{Name: "sqlexec.agg_bytes_per_op", Unit: "B"},
	{Name: "sqlexec.scan_share", Unit: "ratio"},
	{Name: "sqlexec.aggregate_share", Unit: "ratio"},
	{Name: "sqlexec.join_share", Unit: "ratio"},
	{Name: "sqlexec.udtf_share", Unit: "ratio"},
	// colstore
	{Name: "colstore.scan_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "colstore.filter_rle_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "colstore.filter_rnd_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "colstore.index_lookup_us", Unit: "us"},
	{Name: "colstore.append_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "colstore.scan_bytes_per_row", Unit: "B/row"},
	{Name: "colstore.blocks_skipped_ratio", Unit: "ratio", Higher: true},
	{Name: "colstore.blocks_compressed_ratio", Unit: "ratio", Higher: true},
	// catalog / vertica
	{Name: "catalog.split_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "vertica.load_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "vertica.load_mem_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "vertica.checkpoint_s", Unit: "s"},
	{Name: "vertica.image_load_s", Unit: "s"},
	// wal / txn
	{Name: "wal.commit_p50_ms", Unit: "ms"},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio"},
	{Name: "wal.replay_mb_per_s", Unit: "MB/s", Higher: true},
	{Name: "wal.rotations", Unit: "count"},
	{Name: "txn.commits", Unit: "count"},
	{Name: "txn.versions_pruned", Unit: "count", Higher: true},
	{Name: "txn.max_active_snapshots", Unit: "count"},
	// vft / darray / dr
	{Name: "vft.db_side_s", Unit: "s"},
	{Name: "vft.network_s", Unit: "s"},
	{Name: "vft.r_side_s", Unit: "s"},
	{Name: "vft.bytes_per_row", Unit: "B/row"},
	{Name: "vft.chunks", Unit: "count"},
	{Name: "vft.encode_ns_per_row", Unit: "ns/row"},
	{Name: "vft.decode_ns_per_row", Unit: "ns/row"},
	{Name: "vft.pool_hit_ratio", Unit: "ratio", Higher: true},
	{Name: "vft.retransmits", Unit: "count"},
	{Name: "darray.fill_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "darray.asdarray_s", Unit: "s"},
	{Name: "dr.task_run_s", Unit: "s"},
	{Name: "dr.task_wait_s", Unit: "s"},
	{Name: "dr.dispatch_us", Unit: "us"},
	// algos / linalg / parallel
	{Name: "algos.glm_iterations", Unit: "count"},
	{Name: "algos.glm_iter_s", Unit: "s"},
	{Name: "algos.kmeans_iter_s", Unit: "s"},
	{Name: "algos.kmeans_objective", Unit: "count"},
	{Name: "linalg.mul_mflops", Unit: "MFLOP/s", Higher: true},
	{Name: "parallel.queue_wait_s", Unit: "s"},
	{Name: "parallel.merge_s", Unit: "s"},
	{Name: "parallel.tasks", Unit: "count"},
	// models / udf
	{Name: "models.deploy_ms", Unit: "ms"},
	{Name: "models.cache_hit_ratio", Unit: "ratio", Higher: true},
	{Name: "models.glm_predict_ns_per_row", Unit: "ns/row"},
	{Name: "models.kmeans_assign_ns_per_row", Unit: "ns/row"},
	{Name: "udf.overhead_ns_per_row", Unit: "ns/row"},
	// cluster
	{Name: "cluster.router_point_us", Unit: "us"},
	{Name: "cluster.router_agg_ms", Unit: "ms"},
	{Name: "cluster.peer_ping_us", Unit: "us"},
	{Name: "cluster.shard_calls_per_query", Unit: "ratio"},
	{Name: "cluster.router_load_rows_per_s", Unit: "rows/s", Higher: true},
	{Name: "cluster.retries", Unit: "count"},
	{Name: "cluster.failovers", Unit: "count"},
	{Name: "cluster.stale_replicas", Unit: "count"},
	// proc
	{Name: "proc.cpu_s", Unit: "s"},
	{Name: "proc.alloc_mb", Unit: "MB"},
	{Name: "proc.gc_cycles", Unit: "count"},
	{Name: "proc.gc_pause_ms", Unit: "ms"},
	{Name: "proc.peak_rss_mb", Unit: "MB"},
	{Name: "proc.host_slowdown", Unit: "ratio"},
	{Name: "trace.overhead_pct", Unit: "%"},
}

// procStat is the process's resource use so far.
type procStat struct {
	cpu                time.Duration
	allocBytes         uint64
	gcCycles           uint32
	gcPause            time.Duration
	peakRSSKB, mallocs uint64
}

func readProc() procStat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procStat{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs), mallocs: ms.Mallocs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.peakRSSKB = uint64(ru.Maxrss)
	}
	return p
}

// probe calls fn once untimed, then n times, and returns the median call.
func (r *run) probe(name string, n int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if r.wl.probeDiv > 1 {
		n = max(n/r.wl.probeDiv, 3)
	}
	sp := r.tr.start("probe:"+name, nil)
	defer sp.end()
	runtime.GC()
	d := make([]float64, n)
	for i := range d {
		var csp *liveSpan
		if i < 16 { // enough calls to read the ladder; the rest only feed the median
			csp = r.tr.start(name, sp)
		}
		t0 := time.Now()
		err := fn()
		d[i] = float64(time.Since(t0))
		csp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(d)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func perSec(rows int, d time.Duration) float64 { return float64(rows) / d.Seconds() }

// pct returns the q-quantile of a sample set, 0 when it is empty.
func (r *run) pct(name string, q float64) float64 {
	s := r.samples[name]
	if len(s) == 0 {
		return 0
	}
	return quantile(sorted(s), q)
}

func (r *run) med(name string) float64 { return r.pct(name, 0.5) }

// layerMetrics runs the direct layer probes against the live deployment and
// folds them, the pass's samples and the program's counter deltas into the
// per-layer metric set.
func (r *run) layerMetrics(before counterSet, procBefore procStat, workDir string) (map[string]float64, error) {
	m := map[string]float64{}
	rounds := float64(r.roundsDone) // untraced and traced rounds of this pass
	delta := snapshotCounters().since(before)
	procNow := readProc()

	// The probes run first where a ratio below should also see their work
	// (block skipping and compressed evaluation inside colstore).
	if err := r.probeServing(m); err != nil {
		return nil, err
	}
	if err := r.probeCluster(m); err != nil {
		return nil, err
	}
	if err := r.probeStorage(m, workDir); err != nil {
		return nil, err
	}
	if err := r.probeAnalytics(m); err != nil {
		return nil, err
	}
	all := snapshotCounters().since(before)

	// client: the tails.
	m["client.point_p99_ms"] = r.pct("point_p50_ms", 0.99)
	m["client.score_p99_ms"] = r.pct("score_p50_ms", 0.99)
	m["client.agg_p90_ms"] = r.pct("client.agg_ms", 0.90)
	m["client.join_p90_ms"] = r.pct("client.join_ms", 0.90)
	m["client.copy_ack_p50_ms"] = r.pct("client.copy_ack_ms", 0.50)
	m["client.copy_ack_p99_ms"] = r.pct("client.copy_ack_ms", 0.99)
	m["client.mix_p99_ms"] = r.pct("client.mix_ms", 0.99)
	m["client.pacer_late_ms"] = r.pct("client.pacer_late_ms", 0.50)

	// Pass-wide ratios from the program's own counters.
	m["server.plan_cache_hit_ratio"] = ratio(delta["plan_hit"], delta["plan_hit"]+delta["plan_miss"])
	m["server.shed_total"] = float64(delta["shed"])
	// Operator nanos are counted only for PROFILE'd statements; probeServing
	// profiles one execution of each statement class.
	opTotal := all["op_scan"] + all["op_aggregate"] + all["op_join"] + all["op_udtf"]
	m["sqlexec.scan_share"] = ratio(all["op_scan"], opTotal)
	m["sqlexec.aggregate_share"] = ratio(all["op_aggregate"], opTotal)
	m["sqlexec.join_share"] = ratio(all["op_join"], opTotal)
	m["sqlexec.udtf_share"] = ratio(all["op_udtf"], opTotal)
	m["colstore.blocks_skipped_ratio"] = ratio(all["blocks_skipped"], all["blocks_skipped"]+all["blocks_scanned"])
	m["colstore.blocks_compressed_ratio"] = ratio(all["blocks_compressed"], all["blocks_scanned"])
	m["wal.fsyncs_per_commit"] = ratio(delta["wal_fsyncs"], delta["wal_appends"])
	m["wal.bytes_per_user_byte"] = ratio(delta["wal_bytes"], (r.ackedRows-r.ackedAtStart)*copyRowBytes)
	m["wal.rotations"] = float64(delta["wal_rotations"])
	m["wal.commit_p50_ms"] = 1e3 * snapHist("wal_commit_seconds").quantileSince(r.walCommitBefore, 0.5)
	m["server.admit_wait_ms"] = 1e3 * (snapHist("server_wait_seconds").sum - r.admitWaitBefore.sum)
	m["wal.replay_mb_per_s"] = 0 // set by the recovery phase on the durable workload
	m["txn.commits"] = float64(delta["txn_commits"])
	m["txn.versions_pruned"] = float64(delta["txn_pruned"])
	m["txn.max_active_snapshots"] = float64(r.maxSnaps)
	m["vft.pool_hit_ratio"] = ratio(delta["vft_pool_hit"], delta["vft_pool_hit"]+delta["vft_pool_miss"])
	m["vft.retransmits"] = float64(delta["vft_retransmits"])
	m["dr.task_run_s"] = float64(delta["dr_run_ns"]) / 1e9 / rounds
	m["dr.task_wait_s"] = float64(delta["dr_wait_ns"]) / 1e9 / rounds
	m["parallel.queue_wait_s"] = float64(delta["par_wait_ns"]) / 1e9 / rounds
	m["parallel.merge_s"] = float64(delta["par_merge_ns"]) / 1e9 / rounds
	m["parallel.tasks"] = float64(delta["par_tasks"]) / rounds
	m["models.cache_hit_ratio"] = ratio(delta["model_hit"], delta["model_hit"]+delta["model_miss"])
	routed := delta["routed_rows"] + delta["routed_agg"] + delta["routed_gather"]
	m["cluster.shard_calls_per_query"] = ratio(delta["shard_calls"], routed)
	m["cluster.retries"] = float64(delta["cl_retries"])
	m["cluster.failovers"] = float64(delta["cl_failovers"])
	m["cluster.stale_replicas"] = float64(delta["cl_stale"])

	// Medians over the pass's rounds.
	for _, name := range []string{"proc.host_slowdown", "vft.db_side_s", "vft.network_s", "vft.r_side_s", "vft.bytes_per_row", "vft.chunks",
		"darray.asdarray_s", "algos.glm_iterations", "algos.glm_iter_s", "algos.kmeans_iter_s", "algos.kmeans_objective"} {
		m[name] = r.med(name)
	}

	m["proc.cpu_s"] = (procNow.cpu - procBefore.cpu).Seconds()
	m["proc.alloc_mb"] = float64(procNow.allocBytes-procBefore.allocBytes) / (1 << 20)
	m["proc.gc_cycles"] = float64(procNow.gcCycles - procBefore.gcCycles)
	m["proc.gc_pause_ms"] = ms(procNow.gcPause - procBefore.gcPause)

	m["proc.peak_rss_mb"] = float64(readProc().peakRSSKB) / 1024
	return m, nil
}

// probeServing walks the request ladder for the same statements the phases
// use: client → Server.Execute → Session.QueryContext → plan.Build /
// sqlparse.Parse, each level called directly.
func (r *run) probeServing(m map[string]float64) error {
	ctx, d, e := r.ctx, r.d, &r.ds.events
	srv, sess := d.nodes[0].srv, d.sess()
	key := func(i int) int64 { return e.k[(i*7919)%r.ds.eventsRows] }
	i := 0
	// On the cluster the statements were prepared at the router; the local
	// server below it (node 0's shards) needs its own copies.
	for _, name := range []string{"point", "agg_grp", "fetch"} {
		if err := srv.Prepare(name, statements[name]); err != nil {
			return err
		}
	}

	ping, err := r.probe("server.ping", 300, func() error { return d.raw.Ping(ctx) })
	if err != nil {
		return err
	}
	m["server.ping_rtt_us"] = us(ping)

	execPoint, err := r.probe("server.execute:point", 500, func() error {
		i++
		_, err := srv.Execute(ctx, "point", key(i))
		return err
	})
	if err != nil {
		return err
	}
	m["server.exec_point_us"] = us(execPoint)
	m["server.wire_point_us"] = 1e3*r.med("raw:point_p50_ms") - us(execPoint)

	execAgg, err := r.probe("server.execute:agg", 5, func() error { _, err := srv.Execute(ctx, "agg_grp"); return err })
	if err != nil {
		return err
	}
	m["server.exec_agg_ms"] = ms(execAgg)

	fetchRows := 0
	execFetch, err := r.probe("server.execute:fetch", 3, func() error {
		res, err := srv.Execute(ctx, "fetch")
		if err == nil {
			fetchRows = res.Len()
		}
		return err
	})
	if err != nil {
		return err
	}
	m["server.exec_fetch_rows_per_s"] = perSec(fetchRows, execFetch)
	// Client-side seconds per delivered row against in-process seconds per row.
	clientPerRow := 1 / r.med("fetch_rows_per_s")
	m["server.wire_fetch_share"] = math.Max(0, 1-(execFetch.Seconds()/float64(fetchRows))/clientPerRow)

	pointSQL := fmt.Sprintf(`SELECT x0, x1 FROM events WHERE k = %d`, key(1))
	parse, err := r.probe("sqlparse.parse", 2000, func() error { _, err := sqlparse.Parse(pointSQL); return err })
	if err != nil {
		return err
	}
	m["sqlparse.parse_us"] = us(parse)
	build := func(name, sql string, n int) (time.Duration, error) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return 0, err
		}
		sel := stmt.(*sqlparse.Select)
		return r.probe(name, n, func() error { _, err := plan.Build(sel, sess.DB); return err })
	}
	bp, err := build("plan.build:point", pointSQL, 1000)
	if err != nil {
		return err
	}
	m["plan.build_point_us"] = us(bp)
	bj, err := build("plan.build:join", statements["join"], 300)
	if err != nil {
		return err
	}
	m["plan.build_join_us"] = us(bj)

	// sqlexec through the session, no server in the way. On the cluster this
	// is node 0's share of the rows.
	localRows := func(table string) (int, error) { return sess.DB.TableRows(table) }
	evRows, err := localRows("events")
	if err != nil {
		return err
	}
	q := func(sql string) func() error {
		return func() error { _, err := sess.QueryContext(ctx, sql); return err }
	}
	sp, err := r.probe("session.query:point", 500, func() error {
		i++
		_, err := sess.QueryContext(ctx, fmt.Sprintf(`SELECT x0, x1 FROM events WHERE k = %d`, key(i)))
		return err
	})
	if err != nil {
		return err
	}
	m["sqlexec.point_us"] = us(sp)
	type allocs struct{ mallocs, bytes float64 }
	withAllocs := func(name, sql string, n int) (time.Duration, allocs, error) {
		calls, run := 0.0, q(sql)
		b := readProc()
		d, err := r.probe(name, n, func() error { calls++; return run() })
		a := readProc()
		return d, allocs{float64(a.mallocs-b.mallocs) / calls, float64(a.allocBytes-b.allocBytes) / calls}, err
	}
	aggInt, aggA, err := withAllocs("session.query:agg_grp", statements["agg_grp"], 5)
	if err != nil {
		return err
	}
	m["sqlexec.agg_int_rows_per_s"] = perSec(evRows, aggInt)
	m["sqlexec.agg_allocs_per_op"], m["sqlexec.agg_bytes_per_op"] = aggA.mallocs, aggA.bytes
	aggDict, err := r.probe("session.query:agg_region", 5, q(statements["agg_region"]))
	if err != nil {
		return err
	}
	m["sqlexec.agg_dict_rows_per_s"] = perSec(evRows, aggDict)
	join, joinA, err := withAllocs("session.query:join", statements["join"], 5)
	if err != nil {
		return err
	}
	m["sqlexec.join_rows_per_s"] = perSec(evRows, join)
	m["sqlexec.join_allocs_per_op"] = joinA.mallocs

	for _, sql := range []string{statements["agg_grp"], statements["agg_region"], statements["join"], predictSQL} {
		if err := q("PROFILE " + sql)(); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
	}

	// udf overhead: in-process PREDICT per row, minus the scan of its input
	// columns (one goroutine per segment, as the executor scans), minus the
	// model's own block scoring.
	predict, err := r.probe("session.query:predict", 3, q(predictSQL))
	if err != nil {
		return err
	}
	segs, err := sess.DB.Segments("pts")
	if err != nil {
		return err
	}
	scan, err := r.probe("colstore.scan:pts", 3, func() error {
		errs := make([]error, len(segs))
		var wg sync.WaitGroup
		for i, seg := range segs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = seg.Scan(featCols, nil, func(*colstore.Batch) error { return nil })
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	const block = 2048
	cols := make([][]float64, nFeat)
	for j := range cols {
		cols[j] = r.ds.ptsF[j][:block]
	}
	out := make([]float64, block)
	pb, err := r.probe("models.predict_block", 2000, func() error { pipeGLM.PredictBlock(cols, out); return nil })
	if err != nil {
		return err
	}
	m["models.glm_predict_ns_per_row"] = float64(pb) / block
	perRow := func(d time.Duration) float64 { return float64(d) / float64(r.ptsLocal) }
	m["udf.overhead_ns_per_row"] = math.Max(0, perRow(predict)-perRow(scan)-m["models.glm_predict_ns_per_row"])

	km := &algos.KmeansModel{K: kmeansK}
	for c := 0; c < kmeansK; c++ {
		center := make([]float64, nFeat)
		for j := range center {
			center[j] = r.ds.ptsF[j][c]
		}
		km.Centers = append(km.Centers, center)
	}
	assign := make([]int64, block)
	var scratch algos.AssignScratch
	ab, err := r.probe("models.assign_block", 1000, func() error { km.AssignBlock(cols, assign, &scratch); return nil })
	if err != nil {
		return err
	}
	m["models.kmeans_assign_ns_per_row"] = float64(ab) / block

	n := 0
	dep, err := r.probe("models.deploy", 20, func() error {
		n++
		return sess.DeployModel(fmt.Sprintf("probe_%d", n), "bench", "deploy probe", pipeGLM)
	})
	if err != nil {
		return err
	}
	m["models.deploy_ms"] = ms(dep)
	return nil
}

// probeCluster times the router without the client hop. Zero on single-node
// deployments, where there is no router.
func (r *run) probeCluster(m map[string]float64) error {
	for _, name := range []string{"cluster.router_point_us", "cluster.router_agg_ms", "cluster.peer_ping_us", "cluster.router_load_rows_per_s"} {
		m[name] = 0
	}
	router := r.d.nodes[0].router
	if router == nil {
		return nil
	}
	ctx, e := r.ctx, &r.ds.events
	i := 0
	rp, err := r.probe("router.execute:point", 300, func() error {
		i++
		_, err := router.Execute(ctx, "point", e.k[(i*7919)%r.ds.eventsRows])
		return err
	})
	if err != nil {
		return err
	}
	m["cluster.router_point_us"] = us(rp)
	ra, err := r.probe("router.execute:agg", 5, func() error { _, err := router.Execute(ctx, "agg_grp"); return err })
	if err != nil {
		return err
	}
	m["cluster.router_agg_ms"] = ms(ra)
	peer, err := verticadr.RawDial(r.d.addrs[1])
	if err != nil {
		return err
	}
	defer peer.Close()
	pp, err := r.probe("cluster.peer_ping", 300, func() error { return peer.Ping(ctx) })
	if err != nil {
		return err
	}
	m["cluster.peer_ping_us"] = us(pp)
	batch := r.ds.in.batch(0, copyRows)
	rl, err := r.probe("router.load", 10, func() error { return router.Load(ctx, "events_in", batch) })
	if err != nil {
		return err
	}
	// The probe's rows are acknowledged rows too: the recovery and count
	// checks must expect them.
	r.ackedRows += 11 * copyRows
	m["cluster.router_load_rows_per_s"] = perSec(copyRows, rl)
	return nil
}

// probeStorage measures colstore, catalog and vertica on standalone objects
// built from the generated events rows.
func (r *run) probeStorage(m map[string]float64, workDir string) error {
	rows := min(r.ds.eventsRows, 131072)
	src := r.ds.events.batch(0, rows)
	var seg *colstore.Segment
	ap, err := r.probe("colstore.append", 3, func() error {
		seg = colstore.NewSegment(eventsSchema, colstore.DefaultBlockRows)
		if err := seg.Append(src); err != nil {
			return err
		}
		return seg.Seal()
	})
	if err != nil {
		return err
	}
	m["colstore.append_rows_per_s"] = perSec(rows, ap)

	var st colstore.ScanStats
	scan := func(name string, pred *colstore.Pred, cols []string) (time.Duration, error) {
		return r.probe(name, 7, func() error {
			st = colstore.ScanStats{}
			return seg.ScanWithStats(cols, pred, &st, func(*colstore.Batch) error { return nil })
		})
	}
	all, err := scan("colstore.scan", nil, nil)
	if err != nil {
		return err
	}
	m["colstore.scan_rows_per_s"] = perSec(rows, all)
	m["colstore.scan_bytes_per_row"] = float64(st.BytesRead) / float64(rows)
	rle, err := scan("colstore.filter:rle", &colstore.Pred{Col: "region", Op: colstore.OpEQ, Val: "emea"}, []string{"region", "x0"})
	if err != nil {
		return err
	}
	m["colstore.filter_rle_rows_per_s"] = perSec(rows, rle)
	rnd, err := scan("colstore.filter:rnd", &colstore.Pred{Col: "x0", Op: colstore.OpGE, Val: 1.5}, []string{"x0", "x1"})
	if err != nil {
		return err
	}
	m["colstore.filter_rnd_rows_per_s"] = perSec(rows, rnd)
	if err := seg.BuildIndex("k"); err != nil {
		return err
	}
	i := 0
	il, err := r.probe("colstore.index_lookup", 2000, func() error {
		i++
		ids, ok := seg.IndexLookup(&colstore.Pred{Col: "k", Op: colstore.OpEQ, Val: r.ds.events.k[(i*7919)%rows]})
		if !ok || len(ids) != 1 {
			return wrong("index lookup returned %d rows (handled %v)", len(ids), ok)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["colstore.index_lookup_us"] = us(il)

	seg0 := catalog.Segmentation{Kind: catalog.SegHash, Column: "id"}
	sp, err := catalog.NewSplitter(seg0, eventsSchema, 4)
	if err != nil {
		return err
	}
	chunk := r.ds.events.batch(0, min(rows, loadChunkRows))
	split, err := r.probe("catalog.split", 7, func() error { _, err := sp.SplitOwned(chunk); return err })
	if err != nil {
		return err
	}
	m["catalog.split_rows_per_s"] = perSec(chunk.Len(), split)

	// vertica: COPY of copyRows-row batches into a scratch database, in
	// memory and durable; then a checkpoint of it and a reopen from the image.
	def := &catalog.TableDef{Name: "t", Schema: eventsSchema, Seg: seg0}
	small := r.ds.events.batch(0, copyRows)
	load := func(name string, cfg vertica.Config) (*vertica.DB, time.Duration, error) {
		db, err := vertica.Open(cfg)
		if err != nil {
			return nil, 0, err
		}
		if err := db.CreateTable(def); err != nil {
			db.Close()
			return nil, 0, err
		}
		d, err := r.probe(name, 30, func() error { return db.Load("t", small) })
		if err != nil {
			db.Close()
		}
		return db, d, err
	}
	mem, d, err := load("vertica.load:mem", vertica.Config{Nodes: 4})
	if err != nil {
		return err
	}
	mem.Close()
	m["vertica.load_mem_rows_per_s"] = perSec(copyRows, d)
	dir := filepath.Join(workDir, "probe-db")
	cfg := vertica.Config{Nodes: 4, Durable: true, DataDir: dir}
	dur, d, err := load("vertica.load:durable", cfg)
	if err != nil {
		return err
	}
	m["vertica.load_rows_per_s"] = perSec(copyRows, d)
	if err := dur.Load("t", src); err != nil {
		dur.Close()
		return err
	}
	csp := r.tr.start("vertica.checkpoint", nil)
	t0 := time.Now()
	_, err = dur.Checkpoint()
	m["vertica.checkpoint_s"] = time.Since(t0).Seconds()
	csp.end()
	dur.Close()
	if err != nil {
		return err
	}
	osp := r.tr.start("vertica.open", nil)
	t0 = time.Now()
	re, err := vertica.Open(cfg)
	open := time.Since(t0)
	osp.end()
	if err != nil {
		return err
	}
	m["vertica.image_load_s"] = (open - re.RecoveryInfo().Replay.Elapsed).Seconds()
	re.Close()
	return os.RemoveAll(dir)
}

// probeAnalytics measures the transfer codec and the analytics runtime's
// primitives on their own.
func (r *run) probeAnalytics(m map[string]float64) error {
	b := r.ds.ptsBatch(0, copyRows)
	var buf []byte
	enc, err := r.probe("vft.encode_chunk", 300, func() (err error) { buf, err = vft.EncodeChunkInto(buf[:0], b); return err })
	if err != nil {
		return err
	}
	m["vft.encode_ns_per_row"] = float64(enc) / copyRows
	dst := colstore.NewBatchCap(ptsSchema, copyRows)
	dec, err := r.probe("vft.decode_chunk", 300, func() error { dst.Reset(); return vft.DecodeChunkInto(dst, buf) })
	if err != nil {
		return err
	}
	m["vft.decode_ns_per_row"] = float64(dec) / copyRows

	cl := r.d.sess().DR
	rows := min(r.ds.ptsRows, 65536)
	mat := darray.NewMat(rows, nFeat)
	for i := 0; i < rows; i++ {
		for j := 0; j < nFeat; j++ {
			mat.Data[i*nFeat+j] = r.ds.ptsF[j][i]
		}
	}
	fill, err := r.probe("darray.from_mat", 7, func() error {
		_, err := darray.FromMat(cl, mat, cl.NumWorkers())
		r.freeArrays()
		return err
	})
	if err != nil {
		return err
	}
	m["darray.fill_rows_per_s"] = perSec(rows, fill)
	disp, err := r.probe("dr.run", 500, func() error { return cl.Run(0, func(*dr.Worker) error { return nil }) })
	if err != nil {
		return err
	}
	m["dr.dispatch_us"] = us(disp)

	const n = 192
	a, bm := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i], bm.Data[i] = float64(i%7)+0.5, float64(i%5)-1.5
	}
	mul, err := r.probe("linalg.mul", 7, func() error { _, err := a.Mul(bm); return err })
	if err != nil {
		return err
	}
	m["linalg.mul_mflops"] = 2 * n * n * n / mul.Seconds() / 1e6
	return nil
}

// reportLadder prints, per request class, how much of a traced request's
// time the layers' self times account for, and the split by layer.
func (r *run) reportLadder(w io.Writer) {
	for _, class := range []string{"point_p50_ms", "agg_rows_per_s", "copy_rows_per_s"} {
		by, self, total := r.tr.selfTimes(class)
		if total == 0 {
			continue
		}
		fmt.Fprintf(w, "ladder %-16s traced %.3f ms, layer self times %.3f ms (%.0f%%):", class, ms(total), ms(self), 100*float64(self)/float64(total))
		layers := make([]string, 0, len(by))
		for l := range by {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, " %s %.0f%%", l, 100*float64(by[l])/float64(total))
		}
		fmt.Fprintln(w)
	}
}

// printTable writes every metric of the run by name, with its unit, sample
// count and bound.
func printTable(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s seed %d rounds %d wall %.1fs ops %d failed %d host slowdown %.3f\n",
		rec.Workload, rec.Seed, rec.Rounds, rec.WallS, rec.Attempted, rec.Failed, rec.Slowdown)
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		d := rec.Metrics[def.Name]
		line := fmt.Sprintf("  %-34s %16.4f %-8s n=%-6d", def.Name, d.Value, d.Unit, d.N)
		if d.Raw > 0 {
			line += fmt.Sprintf(" measured %.4f", d.Raw)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound %.2f", d.Bound)
		}
		if d.HighP > 0 {
			line += fmt.Sprintf(" p%g=%.4f", d.HighP, d.HighV)
		}
		if d.Own {
			line += " own"
		}
		fmt.Fprintln(w, line)
	}
}
