package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanCapacity bounds how many spans a SpanLog retains. A long-running
// server records spans for every traced query; the log keeps the most recent
// DefaultSpanCapacity of them in a ring buffer and counts the rest in
// Dropped() (surfaced as the telemetry_spans_dropped counter on registry
// logs). Benches and tests that need exact retention call Reset between runs,
// exactly as before.
const DefaultSpanCapacity = 8192

// SpanLog collects spans under one Clock. Spans form trees via parent links
// and share a trace ID: StartSpan opens a root (new trace), Span.StartChild
// opens a nested span, and StartSpanRemote continues a trace started in
// another process (the serving protocol carries trace/parent IDs in each
// request). Retention is a bounded ring buffer: the oldest spans are dropped
// once capacity is exceeded, so an always-on server never grows without
// bound.
type SpanLog struct {
	mu        sync.Mutex
	clock     Clock
	clockFn   func() Clock // when set, consulted on every read (registry-owned logs)
	nextID    int64
	nextTrace int64
	capacity  int
	ring      []*Span // ring buffer: oldest at head
	head      int
	size      int
	dropped   atomic.Int64
	droppedC  *Counter // optional mirror into a registry counter
}

// NewSpanLog creates a span log on the given clock (nil = wall clock) with
// the default retention capacity.
func NewSpanLog(c Clock) *SpanLog {
	if c == nil {
		c = WallClock()
	}
	return &SpanLog{clock: c, capacity: DefaultSpanCapacity}
}

// Len reports how many spans are currently retained.
func (l *SpanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

func (l *SpanLog) now() time.Duration {
	if l.clockFn != nil {
		return l.clockFn().Now()
	}
	return l.clock.Now()
}

func (l *SpanLog) dropLocked(n int64) {
	l.dropped.Add(n)
	if l.droppedC != nil {
		l.droppedC.Add(n)
	}
}

// snapshotLocked returns retained spans oldest-first. Callers hold l.mu.
func (l *SpanLog) snapshotLocked() []*Span {
	out := make([]*Span, 0, l.size)
	for i := 0; i < l.size; i++ {
		out = append(out, l.ring[(l.head+i)%len(l.ring)])
	}
	return out
}

func (l *SpanLog) appendLocked(s *Span) {
	if l.capacity < 1 {
		l.capacity = DefaultSpanCapacity
	}
	if len(l.ring) < l.capacity {
		// Still growing toward capacity.
		l.ring = append(l.ring, s)
		l.size++
		return
	}
	if l.size < len(l.ring) {
		l.ring[(l.head+l.size)%len(l.ring)] = s
		l.size++
		return
	}
	// Full: overwrite the oldest.
	l.ring[l.head] = s
	l.head = (l.head + 1) % len(l.ring)
	l.dropLocked(1)
}

// Span is one timed region with attributes. End it exactly once. All methods
// are nil-receiver-safe, so instrumentation can call StartChild/SetAttr/End
// unconditionally and pay nothing when tracing is off.
type Span struct {
	log    *SpanLog
	id     int64
	trace  int64
	parent int64 // 0 = root
	name   string
	start  time.Duration
	end    time.Duration
	ended  bool
	attrs  []Label
}

// StartSpan opens a root span, beginning a new trace.
func (l *SpanLog) StartSpan(name string, attrs ...Label) *Span {
	return l.start(name, 0, 0, attrs)
}

// StartSpanRemote opens a span continuing a trace begun elsewhere: the span
// joins the given trace with the given remote parent span ID. This is the
// server half of wire-level trace propagation — the client sends its trace
// and span IDs with the request, and the server's spans attach under them.
func (l *SpanLog) StartSpanRemote(name string, trace, parent int64, attrs ...Label) *Span {
	return l.start(name, trace, parent, attrs)
}

func (l *SpanLog) start(name string, trace, parent int64, attrs []Label) *Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	if trace == 0 {
		l.nextTrace++
		trace = l.nextTrace
	}
	s := &Span{
		log:    l,
		id:     l.nextID,
		trace:  trace,
		parent: parent,
		name:   name,
		start:  l.now(),
		attrs:  append([]Label(nil), attrs...),
	}
	l.appendLocked(s)
	return s
}

// StartChild opens a span nested under s (same trace). Nil-safe: a nil
// receiver returns nil, so an untraced call chain costs nothing.
func (s *Span) StartChild(name string, attrs ...Label) *Span {
	if s == nil {
		return nil
	}
	return s.log.start(name, s.trace, s.id, attrs)
}

// SetAttr adds (or overwrites) one attribute. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
}

// End closes the span and returns its duration. Ending twice keeps the first
// end time. Nil-safe.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	if !s.ended {
		s.end = s.log.now()
		s.ended = true
	}
	return s.end - s.start
}

// Duration returns end-start for ended spans, elapsed-so-far otherwise.
// Nil-safe.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	if s.ended {
		return s.end - s.start
	}
	return s.log.now() - s.start
}

// Name returns the span name (empty for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's ID within its log (0 for nil).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the trace the span belongs to (0 for nil).
func (s *Span) TraceID() int64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// FormatID renders a trace or span ID for the wire (lowercase hex).
func FormatID(id int64) string { return strconv.FormatUint(uint64(id), 16) }

// ParseID parses a wire-format trace or span ID; empty or malformed input
// yields 0 (tracing disabled for the request).
func ParseID(s string) int64 {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return int64(v)
}

// SpanRecord is an exported span.
type SpanRecord struct {
	ID       int64         `json:"id"`
	Trace    string        `json:"trace"`
	Parent   int64         `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Duration time.Duration `json:"duration_ns"`
	Ended    bool          `json:"ended"`
	Attrs    []Label       `json:"attrs,omitempty"`
}

// Export returns all retained spans in start order.
func (l *SpanLog) Export() []SpanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	spans := l.snapshotLocked()
	out := make([]SpanRecord, len(spans))
	for i, s := range spans {
		end := s.end
		if !s.ended {
			end = l.now()
		}
		out[i] = SpanRecord{
			ID: s.id, Trace: FormatID(s.trace), Parent: s.parent, Name: s.name,
			Start: s.start, End: end, Duration: end - s.start, Ended: s.ended,
			Attrs: append([]Label(nil), s.attrs...),
		}
	}
	return out
}

// TraceRecord is one trace's retained spans, in start order.
type TraceRecord struct {
	Trace string       `json:"trace"`
	Spans []SpanRecord `json:"spans"`
}

// Traces groups the retained spans by trace ID and returns the most recent n
// traces (by first retained span start), oldest first. n <= 0 means all.
func (l *SpanLog) Traces(n int) []TraceRecord {
	recs := l.Export()
	byTrace := map[string]*TraceRecord{}
	var order []string
	for _, r := range recs {
		tr, ok := byTrace[r.Trace]
		if !ok {
			tr = &TraceRecord{Trace: r.Trace}
			byTrace[r.Trace] = tr
			order = append(order, r.Trace)
		}
		tr.Spans = append(tr.Spans, r)
	}
	if n > 0 && len(order) > n {
		order = order[len(order)-n:]
	}
	out := make([]TraceRecord, len(order))
	for i, id := range order {
		out[i] = *byTrace[id]
	}
	return out
}

// Reset drops all recorded spans and zeroes the dropped tally.
func (l *SpanLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring = nil
	l.head = 0
	l.size = 0
	l.nextID = 0
	l.nextTrace = 0
	l.dropped.Store(0)
}

// String renders the span forest indented by depth, with durations and
// attributes — the human-readable trace view.
func (l *SpanLog) String() string {
	recs := l.Export()
	children := map[int64][]SpanRecord{}
	ids := map[int64]bool{}
	for _, r := range recs {
		ids[r.ID] = true
	}
	for _, r := range recs {
		parent := r.Parent
		if parent != 0 && !ids[parent] {
			// The parent span was dropped from the ring (or lives in another
			// process's log); render the orphan at the root.
			parent = 0
		}
		children[parent] = append(children[parent], r)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool {
			if c[i].Start != c[j].Start {
				return c[i].Start < c[j].Start
			}
			return c[i].ID < c[j].ID
		})
	}
	var sb strings.Builder
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, r := range children[parent] {
			fmt.Fprintf(&sb, "%s%s %v", strings.Repeat("  ", depth), r.Name, r.Duration)
			for _, a := range r.Attrs {
				fmt.Fprintf(&sb, " %s=%s", a.Key, a.Value)
			}
			if !r.Ended {
				sb.WriteString(" (open)")
			}
			sb.WriteByte('\n')
			walk(r.ID, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}
