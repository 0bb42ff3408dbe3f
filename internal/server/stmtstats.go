package server

import (
	"container/list"
	"maps"
	"sort"
	"sync"
	"time"

	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// StmtStats is the pg_stat_statements analogue: cumulative per-statement
// execution statistics keyed on the normalized SQL text (the same
// fingerprint the plan cache uses, so a statement's plan-cache entry and its
// stats row line up). Retention is bounded: at most `cap` fingerprints are
// tracked, evicting the least-recently-executed when a new statement would
// exceed the bound — a long-running server with pathological query diversity
// stays at O(cap) memory, and the evictions are counted. As in planCache,
// the entries form a list in execution order, most recent first, so an
// eviction takes the back in O(1).
type StmtStats struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	ll      *list.List // front = most recently executed
	cap     int
	evicted int64
}

type stmtEntry struct {
	sql        string
	plans      map[string]int64 // executions by plan path
	calls      int64
	errors     int64
	errCodes   map[string]int64
	totalNanos int64
	hist       *telemetry.Histogram
}

// defaultStmtStatsCap bounds distinct fingerprints tracked per server.
const defaultStmtStatsCap = 256

func newStmtStats(capacity int) *StmtStats {
	if capacity <= 0 {
		capacity = defaultStmtStatsCap
	}
	return &StmtStats{cap: capacity, ll: list.New(), entries: map[string]*list.Element{}}
}

// record folds one execution into the statement's row: err == nil counts a
// success, otherwise the verr wire code buckets the failure; path is how its
// plan was had (PlanGeneric, PlanCustom, PlanRebuilt; "" for none).
func (s *StmtStats) record(sql, path string, d time.Duration, err error) {
	s.mu.Lock()
	el, ok := s.entries[sql]
	if ok {
		s.ll.MoveToFront(el)
	} else {
		if s.ll.Len() >= s.cap {
			s.evictLocked()
		}
		el = s.ll.PushFront(&stmtEntry{sql: sql, errCodes: map[string]int64{}, hist: telemetry.NewHistogram(nil)})
		s.entries[sql] = el
	}
	e := el.Value.(*stmtEntry)
	e.calls++
	e.totalNanos += int64(d)
	if path != "" {
		if e.plans == nil {
			e.plans = map[string]int64{}
		}
		e.plans[path]++
	}
	if err != nil {
		e.errors++
		e.errCodes[verr.Code(err)]++
	}
	hist := e.hist
	s.mu.Unlock()
	// Observe outside the map lock; the histogram itself is lock-free.
	hist.ObserveDuration(d)
}

// evictLocked removes the least-recently-executed entry: the list's back.
func (s *StmtStats) evictLocked() {
	victim := s.ll.Back()
	if victim == nil {
		return
	}
	s.ll.Remove(victim)
	delete(s.entries, victim.Value.(*stmtEntry).sql)
	s.evicted++
}

// Len reports how many fingerprints are currently tracked.
func (s *StmtStats) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Reset drops every tracked statement.
func (s *StmtStats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = map[string]*list.Element{}
	s.ll.Init()
	s.evicted = 0
}

// StmtSnapshot is one statement's cumulative statistics.
type StmtSnapshot struct {
	SQL      string           `json:"sql"`
	Calls    int64            `json:"calls"`
	Errors   int64            `json:"errors,omitempty"`
	ErrCodes map[string]int64 `json:"error_codes,omitempty"`
	// Plans counts the executions by how their plan was had: "generic",
	// "custom" or "rebuilt" (the generic plan built anew).
	Plans     map[string]int64 `json:"plans,omitempty"`
	TotalSecs float64          `json:"total_seconds"`
	MeanSecs  float64          `json:"mean_seconds"`
	P50Secs   float64          `json:"p50_seconds"`
	P95Secs   float64          `json:"p95_seconds"`
	P99Secs   float64          `json:"p99_seconds"`
}

// Snapshot returns every tracked statement ordered by total time descending
// (the "what is this server spending its life on" view).
func (s *StmtStats) Snapshot() []StmtSnapshot {
	s.mu.Lock()
	entries := make([]*stmtEntry, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*stmtEntry))
	}
	snaps := make([]StmtSnapshot, len(entries))
	for i, e := range entries {
		snaps[i] = StmtSnapshot{
			SQL:       e.sql,
			Calls:     e.calls,
			Errors:    e.errors,
			TotalSecs: time.Duration(e.totalNanos).Seconds(),
		}
		if e.calls > 0 {
			snaps[i].MeanSecs = snaps[i].TotalSecs / float64(e.calls)
		}
		if len(e.errCodes) > 0 {
			snaps[i].ErrCodes = maps.Clone(e.errCodes)
		}
		if len(e.plans) > 0 {
			snaps[i].Plans = maps.Clone(e.plans)
		}
	}
	hists := make([]*telemetry.Histogram, len(entries))
	for i, e := range entries {
		hists[i] = e.hist
	}
	s.mu.Unlock()
	for i, h := range hists {
		if h.Count() > 0 {
			snaps[i].P50Secs = h.Quantile(0.50)
			snaps[i].P95Secs = h.Quantile(0.95)
			snaps[i].P99Secs = h.Quantile(0.99)
		}
	}
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].TotalSecs != snaps[j].TotalSecs {
			return snaps[i].TotalSecs > snaps[j].TotalSecs
		}
		return snaps[i].SQL < snaps[j].SQL
	})
	return snaps
}
