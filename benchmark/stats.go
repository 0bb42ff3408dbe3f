package main

import (
	"math"
	"sort"

	"verticadr/internal/telemetry"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of sorted samples.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// highPercentile is the highest of the usual percentiles that still has at
// least ten samples beyond it, with its value; 0 when the sample is too
// small to support any.
func highPercentile(v []float64) (p float64, value float64) {
	s := sorted(v)
	for _, c := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-c/100) >= 10 {
			return c, quantile(s, c/100)
		}
	}
	return 0, math.NaN()
}

// Deltas of the program's own telemetry around a phase or a pass.

func counter(name string, labels ...telemetry.Label) int64 {
	return telemetry.Default().Counter(name, labels...).Value()
}

func gauge(name string) int64 { return telemetry.Default().Gauge(name).Value() }

// counterSet snapshots the counters the per-layer metrics read as deltas.
type counterSet map[string]int64

var deltaCounters = []struct {
	key, name string
	labels    []telemetry.Label
}{
	{"plan_hit", "server_plan_cache_total", []telemetry.Label{telemetry.L("result", "hit")}},
	{"plan_miss", "server_plan_cache_total", []telemetry.Label{telemetry.L("result", "miss")}},
	{"shed", "server_queries_total", []telemetry.Label{telemetry.L("outcome", "overloaded")}},
	{"op_scan", "sqlexec_op_nanos_total", []telemetry.Label{telemetry.L("op", "scan")}},
	{"op_aggregate", "sqlexec_op_nanos_total", []telemetry.Label{telemetry.L("op", "aggregate")}},
	{"op_join", "sqlexec_op_nanos_total", []telemetry.Label{telemetry.L("op", "join")}},
	{"op_udtf", "sqlexec_op_nanos_total", []telemetry.Label{telemetry.L("op", "udtf")}},
	{"blocks_scanned", "colstore_scan_blocks_total", []telemetry.Label{telemetry.L("result", "scanned")}},
	{"blocks_skipped", "colstore_scan_blocks_total", []telemetry.Label{telemetry.L("result", "skipped")}},
	{"blocks_compressed", "colstore_scan_blocks_total", []telemetry.Label{telemetry.L("result", "compressed")}},
	{"wal_appends", "wal_appends_total", nil},
	{"wal_bytes", "wal_append_bytes_total", nil},
	{"wal_fsyncs", "wal_fsyncs_total", nil},
	{"wal_rotations", "wal_rotations_total", nil},
	{"txn_commits", "txn_commits_total", nil},
	{"txn_pruned", "txn_versions_pruned_total", nil},
	{"vft_pool_hit", "vft_pool_hit_total", nil},
	{"vft_pool_miss", "vft_pool_miss_total", nil},
	{"vft_retransmits", "vft_retransmits_total", nil},
	{"dr_run_ns", "dr_task_run_nanos_total", nil},
	{"dr_wait_ns", "dr_task_wait_nanos_total", nil},
	{"par_tasks", "parallel_tasks_total", nil},
	{"par_wait_ns", "parallel_queue_wait_nanos_total", nil},
	{"par_merge_ns", "parallel_merge_nanos_total", nil},
	{"model_hit", "models_cache_total", []telemetry.Label{telemetry.L("result", "hit")}},
	{"model_miss", "models_cache_total", []telemetry.Label{telemetry.L("result", "miss")}},
	{"shard_calls", "cluster_shard_calls_total", []telemetry.Label{telemetry.L("outcome", "ok")}},
	{"routed_rows", "cluster_routed_queries_total", []telemetry.Label{telemetry.L("kind", "rows")}},
	{"routed_agg", "cluster_routed_queries_total", []telemetry.Label{telemetry.L("kind", "aggregate")}},
	{"routed_gather", "cluster_routed_queries_total", []telemetry.Label{telemetry.L("kind", "gather")}},
	{"cl_retries", "cluster_retries_total", nil},
	{"cl_failovers", "cluster_failovers_total", nil},
	{"cl_stale", "cluster_stale_replicas_total", nil},
}

func snapshotCounters() counterSet {
	cs := counterSet{}
	for _, c := range deltaCounters {
		cs[c.key] = counter(c.name, c.labels...)
	}
	return cs
}

func (cs counterSet) since(before counterSet) counterSet {
	d := counterSet{}
	for k, v := range cs {
		d[k] = v - before[k]
	}
	return d
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// histSnap is a histogram's state; the difference of two gives the quantile
// of only the observations made in between.
type histSnap struct {
	bounds []float64
	counts []int64
	sum    float64
}

func snapHist(name string) histSnap {
	h := telemetry.Default().Histogram(name, nil)
	b, c := h.Buckets()
	return histSnap{bounds: b, counts: c, sum: h.Sum()}
}

// quantileSince estimates the q-quantile of observations made after before,
// by linear interpolation inside the bucket holding it.
func (h histSnap) quantileSince(before histSnap, q float64) float64 {
	// Buckets reports cumulative counts; recover per-bucket deltas.
	delta := make([]int64, len(h.counts))
	var prev int64
	for i := range h.counts {
		cum := h.counts[i]
		if i < len(before.counts) {
			cum -= before.counts[i]
		}
		delta[i], prev = cum-prev, cum
	}
	total := prev
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, n := range delta {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= target {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			return lo + (hi-lo)*(target-cum)/float64(n)
		}
		cum += float64(n)
	}
	return h.bounds[len(h.bounds)-1]
}
