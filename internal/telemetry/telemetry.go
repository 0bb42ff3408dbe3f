// Package telemetry is the repo's zero-dependency observability layer:
// a Registry of atomic counters, gauges and fixed-bucket histograms with
// labeled children, plus lightweight span tracing (span.go). Every layer of
// the pipeline — colstore segment scans, sqlexec operators, the ODBC and VFT
// transfer paths, the Distributed R scheduler and the YARN broker — records
// into the process-wide Default registry, so any run (a PROFILE'd query, a
// bench figure, a test) can snapshot before/after and report deltas.
//
// All time measurement goes through a pluggable Clock so the same
// instrumentation reports virtual time when driven under internal/simnet and
// wall time otherwise. Exposition is Prometheus text (PromText) or JSON
// (SnapshotJSON).
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies timestamps as offsets from an arbitrary epoch. The wall
// clock measures from process start; a simulation clock reports virtual time.
type Clock interface {
	Now() time.Duration
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() time.Duration

// Now implements Clock.
func (f ClockFunc) Now() time.Duration { return f() }

var wallEpoch = time.Now()

type wallClock struct{}

func (wallClock) Now() time.Duration { return time.Since(wallEpoch) }

// WallClock returns the real-time clock (monotonic, from process start).
func WallClock() Clock { return wallClock{} }

// Label is one key=value dimension of a metric series or span.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey renders the canonical identity of name + sorted labels, e.g.
// `ops_total{op="scan"}`, and returns the sorted label set (retained as
// series metadata for structured exposition formats).
func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String(), ls
}

// seriesID renders the canonical identity of name + sorted labels.
func seriesID(name string, labels []Label) string {
	id, _ := seriesKey(name, labels)
	return id
}

// Counter is a monotonically increasing atomic counter. Durations are stored
// as nanoseconds via AddDuration/Duration.
type Counter struct{ v atomic.Int64 }

// NewCounter allocates a standalone counter not attached to any registry
// (per-session tallies use these; registry children come from
// Registry.Counter).
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// AddDuration accumulates a duration (stored as nanoseconds).
func (c *Counter) AddDuration(d time.Duration) { c.v.Add(int64(d)) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Duration returns the accumulated nanoseconds as a time.Duration.
func (c *Counter) Duration() time.Duration { return time.Duration(c.v.Load()) }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// implicit +Inf bucket, with a running sum. Observations are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// NewHistogram allocates a standalone histogram not attached to any registry
// (per-statement latency tracking uses these). buckets are ascending upper
// bounds; nil selects DefaultDurationBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultDurationBuckets
	}
	bounds := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram buckets not ascending")
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// DefaultDurationBuckets covers 1µs .. ~100s in decades, in seconds.
var DefaultDurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the p-quantile (p in [0,1]) by linear interpolation
// within the bucket containing the target rank — the standard
// histogram_quantile estimate. The first finite bucket interpolates from 0;
// ranks landing in the +Inf bucket report the highest finite bound (the
// estimate saturates there). NaN when the histogram is empty.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) { // +Inf bucket: saturate at last finite bound
				if len(h.bounds) == 0 {
					return math.NaN()
				}
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns (upper bound, cumulative count) pairs including +Inf.
func (h *Histogram) Buckets() ([]float64, []int64) {
	bounds := append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts := make([]int64, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	return bounds, counts
}

// Registry holds named metric series. Lookup methods are idempotent: the
// same name+labels always returns the same child, so packages may resolve
// their series once into vars or on every call. A series of at most one
// label is found again by its parts (quick), without rendering its ID: such
// a lookup neither formats, sorts nor allocates.
type Registry struct {
	mu       sync.RWMutex
	clock    Clock
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]seriesMeta
	quick    quickSeries
	spans    *SpanLog
}

// quickKey identifies a series of at most one label by its parts.
type quickKey struct {
	name, key, value string
	labeled          bool
}

type quickSeries struct {
	counters map[quickKey]*Counter
	gauges   map[quickKey]*Gauge
	hists    map[quickKey]*Histogram
}

// quickKeyOf is the series' quick key, when it has one.
func quickKeyOf(name string, labels []Label) (quickKey, bool) {
	switch len(labels) {
	case 0:
		return quickKey{name: name}, true
	case 1:
		return quickKey{name: name, key: labels[0].Key, value: labels[0].Value, labeled: true}, true
	}
	return quickKey{}, false
}

// series returns the series name{labels} of one kind — byID and quick are
// its maps — creating it with mk, which gets the series ID, if needed.
func series[T any](r *Registry, byID map[string]*T, quick map[quickKey]*T, name string, labels []Label, mk func(id string) *T) *T {
	q, isQuick := quickKeyOf(name, labels)
	var id string
	var sorted []Label
	r.mu.RLock()
	var s *T
	if isQuick {
		s = quick[q]
	} else {
		id, sorted = seriesKey(name, labels)
		s = byID[id]
	}
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	if isQuick {
		id, sorted = seriesKey(name, labels)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = byID[id]; s == nil {
		s = mk(id)
		byID[id] = s
		r.meta[id] = seriesMeta{name: name, labels: sorted}
	}
	if isQuick {
		quick[q] = s
	}
	return s
}

// seriesMeta is the structured identity behind a series ID: the base metric
// name and its sorted label set. Exposition formats that need labels as
// first-class data (Prometheus text) read these instead of reparsing IDs.
type seriesMeta struct {
	name   string
	labels []Label
}

// NewRegistry creates an empty registry on the wall clock.
func NewRegistry() *Registry {
	r := &Registry{
		clock:    WallClock(),
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		meta:     map[string]seriesMeta{},
		quick: quickSeries{
			counters: map[quickKey]*Counter{},
			gauges:   map[quickKey]*Gauge{},
			hists:    map[quickKey]*Histogram{},
		},
	}
	r.spans = NewSpanLog(nil)
	r.spans.clockFn = r.Clock // spans follow registry clock swaps
	// Resolved eagerly so SpanLog never touches registry locks while holding
	// its own (the ring buffer bumps this on every eviction).
	r.spans.droppedC = r.Counter("telemetry_spans_dropped")
	return r
}

var std = NewRegistry()

// Default returns the process-wide registry all built-in instrumentation
// records into.
func Default() *Registry { return std }

// SetClock swaps the time source (e.g. a simnet virtual clock). Spans
// started from this registry's SpanLog pick up the new clock immediately.
func (r *Registry) SetClock(c Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c == nil {
		c = WallClock()
	}
	r.clock = c
}

// Clock returns the registry's current time source.
func (r *Registry) Clock() Clock {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.clock
}

// Now reads the registry clock.
func (r *Registry) Now() time.Duration { return r.Clock().Now() }

// Spans returns the registry's span log (same clock).
func (r *Registry) Spans() *SpanLog { return r.spans }

// Counter returns (creating if needed) the counter series name{labels}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return series(r, r.counters, r.quick.counters, name, labels, func(string) *Counter { return &Counter{} })
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return series(r, r.gauges, r.quick.gauges, name, labels, func(string) *Gauge { return &Gauge{} })
}

// Histogram returns (creating if needed) the histogram series name{labels}.
// buckets are ascending upper bounds; nil selects DefaultDurationBuckets.
// The bucket layout is fixed by the first caller.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	return series(r, r.hists, r.quick.hists, name, labels, func(id string) *Histogram {
		if buckets == nil {
			buckets = DefaultDurationBuckets
		}
		bounds := append([]float64(nil), buckets...)
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", id))
		}
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	})
}

// Reset zeroes every series in place. Existing Counter/Gauge/Histogram
// pointers held by instrumented packages stay valid.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
		h.count.Store(0)
	}
	r.spans.Reset()
}

// SeriesSnapshot is one series' point-in-time value.
type SeriesSnapshot struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // counter | gauge | histogram
	Value float64 `json:"value"`
	// Histogram extras.
	Count   int64     `json:"count,omitempty"`
	Buckets []float64 `json:"buckets,omitempty"`
	Counts  []int64   `json:"counts,omitempty"`
}

// Snapshot returns every series sorted by name.
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]SeriesSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for id, c := range r.counters {
		out = append(out, SeriesSnapshot{Name: id, Kind: "counter", Value: float64(c.Value())})
	}
	for id, g := range r.gauges {
		out = append(out, SeriesSnapshot{Name: id, Kind: "gauge", Value: float64(g.Value())})
	}
	for id, h := range r.hists {
		bounds, counts := h.Buckets()
		out = append(out, SeriesSnapshot{
			Name: id, Kind: "histogram", Value: h.Sum(), Count: h.Count(),
			Buckets: bounds, Counts: counts,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SnapshotJSON marshals Snapshot as indented JSON.
func (r *Registry) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
