package sqlexec

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/telemetry"
)

// OpProfile is one executed operator's measurements: rows and bytes through
// the stage, block-level scan accounting, the parallel degree the stage ran
// at, and its inclusive wall time.
type OpProfile struct {
	Op            string        `json:"op"` // scan, filter, project, aggregate, sort, limit, udtf, const
	Rows          int64         `json:"rows"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	Blocks        int64         `json:"blocks,omitempty"`
	BlocksSkipped int64         `json:"blocks_skipped,omitempty"`
	// BlocksCompressed counts blocks whose predicate was evaluated directly
	// on the encoded form (RLE runs / dictionary codes) — reported
	// distinctly from zone-map skips: a skipped block was never touched,
	// a compressed block was evaluated without being decoded.
	BlocksCompressed int64  `json:"blocks_compressed,omitempty"`
	Bytes            int64  `json:"bytes,omitempty"`
	Parallel         int    `json:"parallel,omitempty"`
	Partitions       int    `json:"partitions,omitempty"` // function instances a udtf operator ran
	Detail           string `json:"detail,omitempty"`
}

// Profile is a per-query execution profile: per-operator row counts and
// timings in the order the operators started, plus the query's total time. It is collected
// when the statement is PROFILE SELECT ... (or the caller opts in) and
// attached to the Result. Time comes from the telemetry Default clock, so
// profiles report virtual time under a simulation-driven clock.
type Profile struct {
	Query string
	Total time.Duration

	mu    sync.Mutex
	ops   []*OpProfile // by start order; nil while the operator runs
	clock telemetry.Clock
	start time.Duration
}

// NewProfile opens a profile on the default telemetry clock.
func NewProfile(query string) *Profile {
	c := telemetry.Default().Clock()
	return &Profile{Query: query, clock: c, start: c.Now()}
}

// Ops returns the finished operators in the order they started. Operators
// run one after another start and finish in the same order; the fused
// operators of a streamed input (walk.go) start in plan post-order before
// any of them runs and finish together.
func (p *Profile) Ops() []OpProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []OpProfile
	for _, op := range p.ops {
		if op != nil {
			out = append(out, *op)
		}
	}
	return out
}

// opTimer times one operator. Exec stages set the structured fields (Blocks,
// Bytes, Parallel...) before calling Done. It serves two consumers at once:
// the Profile (when the statement is PROFILE'd) and the query's trace (when
// the context carries a span) — either can be absent at zero cost.
type opTimer struct {
	p    *Profile
	op   string
	slot int // the operator's place in p.ops
	t0   time.Duration
	span *telemetry.Span
	// extra is added to the measured wall time: an operator above a streamed
	// input takes the share of the input's walk its stage was busy. A fused
	// operator — one of the walk's own stages — has no interval of its own:
	// its time is all extra (charge).
	extra time.Duration
	fused bool

	Blocks           int64
	BlocksSkipped    int64
	BlocksCompressed int64
	BlocksAllMatch   int64 // a span attribute only
	Bytes            int64
	Parallel         int
	Partitions       int
}

// startOp begins timing one operator. Nil-safe on prof: with a nil *Profile
// only the global per-operator row counters and the trace span (if the
// context is traced) are recorded.
func startOp(ctx context.Context, p *Profile, op string) *opTimer {
	t := &opTimer{p: p, op: op}
	if p != nil {
		t.t0 = p.clock.Now()
		p.mu.Lock()
		t.slot = len(p.ops)
		p.ops = append(p.ops, nil)
		p.mu.Unlock()
	}
	t.span = telemetry.SpanFromContext(ctx).StartChild("op:" + op)
	return t
}

// done records the operator with the rows produced and its detail, which is
// formatted only when the profile keeps it: an operator of a query that is
// not PROFILE'd spends nothing on its text.
func (t *opTimer) done(rows int64, detail func() string) {
	telemetry.Default().Counter("sqlexec_op_rows_total", telemetry.L("op", t.op)).Add(rows)
	if t.span != nil {
		t.span.SetAttr("rows", strconv.FormatInt(rows, 10))
		if t.Blocks > 0 {
			t.span.SetAttr("blocks", strconv.FormatInt(t.Blocks, 10))
		}
		if t.BlocksSkipped > 0 {
			t.span.SetAttr("blocks_skipped", strconv.FormatInt(t.BlocksSkipped, 10))
		}
		if t.BlocksCompressed > 0 {
			t.span.SetAttr("blocks_compressed", strconv.FormatInt(t.BlocksCompressed, 10))
		}
		if t.BlocksAllMatch > 0 {
			t.span.SetAttr("blocks_all_match", strconv.FormatInt(t.BlocksAllMatch, 10))
		}
		if t.Parallel > 0 {
			t.span.SetAttr("parallel", strconv.Itoa(t.Parallel))
		}
		if t.Partitions > 0 {
			t.span.SetAttr("partitions", strconv.Itoa(t.Partitions))
		}
		t.span.End()
	}
	if t.p == nil {
		return
	}
	elapsed := t.extra
	if !t.fused {
		elapsed += t.p.clock.Now() - t.t0
	}
	telemetry.Default().Counter("sqlexec_op_nanos_total", telemetry.L("op", t.op)).AddDuration(elapsed)
	text := detail()
	t.p.mu.Lock()
	t.p.ops[t.slot] = &OpProfile{
		Op: t.op, Rows: rows, Elapsed: elapsed,
		Blocks: t.Blocks, BlocksSkipped: t.BlocksSkipped,
		BlocksCompressed: t.BlocksCompressed, Bytes: t.Bytes,
		Parallel: t.Parallel, Partitions: t.Partitions, Detail: text,
	}
	t.p.mu.Unlock()
}

// charge books d to an operator fused into a loop with others: its time is
// what it is charged, not the interval since it started.
func (t *opTimer) charge(d time.Duration) {
	t.fused = true
	t.extra += d
}

// doneScan ends a scan operator with the storage layer's block accounting.
func (t *opTimer) doneScan(st colstore.ScanStats, rows int64, detail func() string) {
	t.Blocks = int64(st.BlocksScanned)
	t.BlocksSkipped = int64(st.BlocksSkipped)
	t.BlocksCompressed = int64(st.BlocksCompressed)
	t.BlocksAllMatch = int64(st.BlocksAllMatch)
	t.Bytes = int64(st.BytesRead)
	t.done(rows, detail)
}

// now reads the profile's clock; a nil profile reads 0 at no cost.
func (p *Profile) now() time.Duration {
	if p == nil {
		return 0
	}
	return p.clock.Now()
}

// finish stamps the total. Nil-safe.
func (p *Profile) finish() {
	if p == nil {
		return
	}
	p.Total = p.clock.Now() - p.start
}

// ProfileExport is the wire/JSON form of a Profile: what PROFILE SELECT
// returns as structured output and what the serving protocol attaches to an
// execute response.
type ProfileExport struct {
	Query   string      `json:"query,omitempty"`
	TotalNS int64       `json:"total_ns"`
	Ops     []OpProfile `json:"ops"`
}

// Export snapshots the profile into its structured form. Nil-safe: a nil
// profile exports nil.
func (p *Profile) Export() *ProfileExport {
	if p == nil {
		return nil
	}
	return &ProfileExport{Query: p.Query, TotalNS: int64(p.Total), Ops: p.Ops()}
}

// JSON renders the profile as indented JSON (the PROFILE structured output).
func (p *Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(p.Export(), "", "  ")
}

// String renders the PROFILE output table:
//
//	operator     rows        time  detail
//	scan        10000     412µs    4 segments, 12 blocks scanned, 28 skipped, 82 KB
//	filter       4981     103µs    residual WHERE
//	...
//	total                  1.2ms
func (p *Profile) String() string {
	ops := p.Ops()
	var sb strings.Builder
	if p.Query != "" {
		fmt.Fprintf(&sb, "%s\n", p.Query)
	}
	fmt.Fprintf(&sb, "%-10s %10s %12s  %s\n", "operator", "rows", "time", "detail")
	for _, op := range ops {
		fmt.Fprintf(&sb, "%-10s %10d %12v  %s\n", op.Op, op.Rows, op.Elapsed.Round(time.Microsecond), op.Detail)
	}
	fmt.Fprintf(&sb, "%-10s %10s %12v\n", "total", "", p.Total.Round(time.Microsecond))
	return sb.String()
}
