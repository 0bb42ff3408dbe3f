package colstore

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// Scan-path telemetry: rows/bytes delivered and zone-map effectiveness,
// recorded for every scan regardless of caller.
var (
	mScanRows      = telemetry.Default().Counter("colstore_scan_rows_total")
	mScanBytes     = telemetry.Default().Counter("colstore_scan_bytes_total")
	mBlocksScanned = telemetry.Default().Counter("colstore_scan_blocks_total", telemetry.L("result", "scanned"))
	mBlocksSkipped = telemetry.Default().Counter("colstore_scan_blocks_total", telemetry.L("result", "skipped"))
	// Blocks whose predicate was evaluated on the encoded form (a subset of
	// the scanned count, never of the skipped count).
	mBlocksCompressed = telemetry.Default().Counter("colstore_scan_blocks_total", telemetry.L("result", "compressed"))
	// Blocks whose every predicate the zone maps decided (a subset of the
	// scanned count): read as if the scan had no predicate.
	mBlocksAllMatch = telemetry.Default().Counter("colstore_scan_blocks_total", telemetry.L("result", "all_match"))
)

// DefaultBlockRows is the number of rows per sealed block when not overridden.
const DefaultBlockRows = 4096

// blockRef is one sealed, encoded block of a column plus its zone-map stats.
type blockRef struct {
	data     []byte
	rows     int
	hasStats bool
	min, max float64 // valid for numeric columns when hasStats
}

// Segment is a horizontal slice of a table stored on one database node as
// encoded column blocks. Appends buffer into an open tail batch which is
// sealed into blocks every blockRows rows; scans decode block-at-a-time and
// can skip blocks using min/max statistics (zone maps).
type Segment struct {
	schema    Schema
	blockRows int
	sealed    [][]blockRef // per column
	// tail holds the unsealed rows. It is append-only — scans read it as
	// [0, len) views — so clones share its backing arrays, and claim, the
	// length of the arrays' written prefix, shared too. An Append writes in
	// place only when its tail ends where that prefix does and it can move
	// the claim; otherwise it copies into a tail of its own.
	tail  *Batch
	claim *atomic.Int64
	rows  int
	// indexes holds the attached secondary B-tree indexes by column name.
	// Trees are copy-on-write (see internal/colstore/index): Clone shares
	// them, and Append republishes extended trees into this map only.
	indexes map[string]*indexTree
	// statsCache memoizes ColumnStats per column. The planner reads stats on
	// every Build, and recomputing NDV walks block headers and the whole
	// tail; concurrent planners may race on the fill, hence the mutex. Any
	// mutation (Append, Seal, index DDL) drops the cache; clones start cold.
	statsMu    sync.Mutex
	statsCache map[string]ColumnStats
}

// invalidateStats drops the memoized column statistics after a mutation.
func (s *Segment) invalidateStats() {
	s.statsMu.Lock()
	s.statsCache = nil
	s.statsMu.Unlock()
}

// NewSegment creates an empty segment. blockRows <= 0 selects the default.
func NewSegment(schema Schema, blockRows int) *Segment {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	return &Segment{
		schema:    schema,
		blockRows: blockRows,
		sealed:    make([][]blockRef, len(schema)),
		tail:      NewBatch(schema),
		claim:     new(atomic.Int64),
	}
}

// Schema returns the segment's schema.
func (s *Segment) Schema() Schema { return s.schema }

// Rows returns the total row count.
func (s *Segment) Rows() int { return s.rows }

// Append adds the batch's rows to the segment.
func (s *Segment) Append(b *Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if !b.Schema.Equal(s.schema) {
		return fmt.Errorf("colstore: segment append schema mismatch")
	}
	s.invalidateStats()
	base := s.rows
	s.rows += b.Len()
	if err := s.appendRows(b); err != nil {
		return err
	}
	return s.maintainIndexes(b, base)
}

// appendRows adds b's rows to the tail while they fit its block. Rows that
// fill it top the tail up to a block, which is sealed; then every whole
// block left in b is encoded straight from b, and only the rest is copied,
// into a fresh tail. The blocks are those a seal of the tail and b in one
// would cut: the segment's rows in runs of blockRows.
func (s *Segment) appendRows(b *Batch) error {
	n := s.tail.Len()
	if n+b.Len() < s.blockRows {
		s.appendTail(b, b.Len())
		return nil
	}
	lo := 0
	if n > 0 {
		lo = s.blockRows - n
		s.appendTail(b, lo)
		if err := s.sealBlocks(s.tail, 0, s.blockRows); err != nil {
			return err
		}
	}
	hi := lo + (b.Len()-lo)/s.blockRows*s.blockRows
	if err := s.sealBlocks(b, lo, hi); err != nil {
		return err
	}
	// Appends of fewer rows than a block fill the next one in this tail: it
	// gets the block's room now, so it is allocated once. A bulk append
	// leaves only its rest there.
	room := 0
	if b.Len() < s.blockRows {
		room = s.blockRows
	}
	nt := NewBatchCap(s.schema, max(room, b.Len()-hi))
	_ = nt.AppendRange(b, hi, b.Len()) // one schema
	s.setTail(nt)
	return nil
}

// appendTail appends b's first k rows to the tail: in place when the backing
// arrays have room and no clone has written past this tail, else into a
// fresh tail with a claim of its own, of twice the rows but at most a block
// (of just the rows when they fill a block and are about to be sealed).
func (s *Segment) appendTail(b *Batch, k int) {
	n, m := s.tail.Len(), s.tail.Len()+k
	room := true
	for _, c := range s.tail.Cols {
		room = room && cap(c.Ints)+cap(c.Floats)+cap(c.Strs)+cap(c.Bools) >= m
	}
	if !room || !s.claim.CompareAndSwap(int64(n), int64(m)) {
		nt := NewBatchCap(s.schema, max(m, min(2*m, s.blockRows)))
		_ = nt.AppendBatch(s.tail) // one schema
		s.setTail(nt)
		s.claim.Store(int64(m))
	}
	_ = s.tail.AppendRange(b, 0, k) // the caller checked the schema
}

// setTail makes t the tail, with a claim of its own at t's length.
func (s *Segment) setTail(t *Batch) {
	s.tail, s.claim = t, new(atomic.Int64)
	s.claim.Store(int64(t.Len()))
}

// Seal flushes the open tail into sealed blocks.
func (s *Segment) Seal() error {
	if s.tail.Len() == 0 {
		return nil
	}
	s.invalidateStats()
	if err := s.sealBlocks(s.tail, 0, s.tail.Len()); err != nil {
		return err
	}
	s.setTail(NewBatch(s.schema))
	return nil
}

// sealBlocks encodes b's rows [lo, hi) as blocks of blockRows rows, the last
// one shorter when hi-lo is not a multiple.
func (s *Segment) sealBlocks(b *Batch, lo, hi int) error {
	for ; lo < hi; lo += s.blockRows {
		for i, col := range b.Slice(lo, min(lo+s.blockRows, hi)).Cols {
			data, err := EncodeBlock(col, BestEncoding(col))
			if err != nil {
				return err
			}
			ref := blockRef{data: data, rows: col.Len()}
			ref.hasStats, ref.min, ref.max = vectorStats(col)
			s.sealed[i] = append(s.sealed[i], ref)
		}
	}
	return nil
}

func vectorStats(v *Vector) (ok bool, min, max float64) {
	switch v.Type {
	case TypeInt64:
		if len(v.Ints) == 0 {
			return false, 0, 0
		}
		min, max = float64(v.Ints[0]), float64(v.Ints[0])
		for _, x := range v.Ints {
			f := float64(x)
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
		}
		return true, min, max
	case TypeFloat64:
		if len(v.Floats) == 0 {
			return false, 0, 0
		}
		min, max = v.Floats[0], v.Floats[0]
		for _, x := range v.Floats {
			if math.IsNaN(x) {
				return false, 0, 0
			}
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return true, min, max
	}
	return false, 0, 0
}

// zoneValue is an interval bound as the zone maps compare it, ok when they
// may: a float that is not NaN (a NaN compares equal to every value), or an
// int strictly inside ±2^53. INTEGER stats are float64(x), so 2^53+1 is
// recorded as 2^53; against a bound inside that range a rounded stat still
// orders exactly as the integer does, and a float bound of an INTEGER column
// compares widened, as selectRows does. Strings and booleans have no stats.
func zoneValue(b any) (v float64, ok bool) {
	switch x := b.(type) {
	case int64:
		return float64(x), x < 1<<53 && x > -(1<<53)
	case float64:
		return x, !math.IsNaN(x)
	}
	return 0, false
}

// blockMayMatch consults the zone map; returning true means "cannot rule
// out". Each bound is tested on its own.
func (iv *interval) blockMayMatch(ref blockRef) bool {
	lo, okLo := zoneValue(iv.lo)
	hi, okHi := zoneValue(iv.hi)
	return !ref.hasStats || (!okLo || ref.max > lo || iv.loIncl && ref.max == lo) &&
		(!okHi || ref.min < hi || iv.hiIncl && ref.min == hi)
}

// blockAllMatch is blockMayMatch's mirror: true when the zone map proves
// every row of the block inside the interval, so it need not be evaluated.
// A point [v, v] and an interval without bounds (<>) are always evaluated:
// an RLE or dictionary block answers them on its encoded form.
func (iv *interval) blockAllMatch(ref blockRef) bool {
	lo, okLo := zoneValue(iv.lo)
	hi, okHi := zoneValue(iv.hi)
	return ref.hasStats && iv.lo != iv.hi &&
		(iv.lo == nil || okLo && (ref.min > lo || iv.loIncl && ref.min == lo)) &&
		(iv.hi == nil || okHi && (ref.max < hi || iv.hiIncl && ref.max == hi))
}

// ScanStats reports what one scan touched: blocks decoded vs. skipped by
// zone maps, encoded bytes decoded, and rows delivered past the predicate.
type ScanStats struct {
	BlocksScanned int // sealed blocks decoded
	BlocksSkipped int // sealed blocks excluded by min/max stats
	// BlocksCompressed counts scanned blocks whose predicate was evaluated
	// directly on the encoded form (RLE runs / dictionary codes) without a
	// full decode. Always a subset of BlocksScanned, disjoint from
	// BlocksSkipped: a zone-map skip touches no payload at all.
	BlocksCompressed int
	// BlocksAllMatch counts scanned blocks whose every predicate the zone
	// maps decided true (blockAllMatch): no predicate was evaluated and the
	// block decoded as if unfiltered. A subset of BlocksScanned.
	BlocksAllMatch int
	TailRows       int // unsealed tail rows examined
	RowsOut        int // rows delivered to the callback
	BytesRead      int // encoded bytes of the blocks decoded
}

// Add accumulates another scan's stats (per-segment parallel scans merge
// into one per-query view).
func (st *ScanStats) Add(o ScanStats) {
	st.BlocksScanned += o.BlocksScanned
	st.BlocksSkipped += o.BlocksSkipped
	st.BlocksCompressed += o.BlocksCompressed
	st.BlocksAllMatch += o.BlocksAllMatch
	st.TailRows += o.TailRows
	st.RowsOut += o.RowsOut
	st.BytesRead += o.BytesRead
}

// scanPlan is the resolved form of a scan request, shared by every cursor
// over it.
type scanPlan struct {
	colIdx    []int
	outSchema Schema
	nblocks   int
	// preds is the exact conjunction the scan applies, in evaluation order.
	preds []cond
}

// A cond is one conjunct of a planned scan: the rows of column col inside
// its interval — the column's ordered comparisons, folded — or, when pred
// is set, the rows that comparison keeps, its interval over its literal's
// type then serving the zone maps alone.
type cond struct {
	interval
	pred *Pred
	col  int
}

// selectRows keeps the rows of v, the cond's column, that satisfy it, as
// Pred.selectRows does.
func (c *cond) selectRows(v *Vector, sel, out []int) ([]int, error) {
	if c.pred != nil {
		return c.pred.selectRows(v, sel, out)
	}
	return c.interval.selectRows(v, sel, out), nil
}

// blockSkipped reports whether a predicate's zone map excludes sealed block
// bi.
func (p *scanPlan) blockSkipped(s *Segment, bi int) bool {
	for j := range p.preds {
		if !p.preds[j].blockMayMatch(s.sealed[p.preds[j].col][bi]) {
			return true
		}
	}
	return false
}

func (s *Segment) planScan(cols []string, preds []Pred) (*scanPlan, error) {
	if cols == nil {
		cols = make([]string, len(s.schema))
		for i, c := range s.schema {
			cols[i] = c.Name
		}
	}
	outSchema, err := s.schema.Project(cols)
	if err != nil {
		return nil, err
	}
	colIdx := make([]int, len(cols))
	for i, n := range cols {
		colIdx[i] = s.schema.ColIndex(n)
	}
	// Sealed blocks: every column has the same block boundaries.
	plan := &scanPlan{colIdx: colIdx, outSchema: outSchema, nblocks: s.Blocks()}
	// Each comparison that is an interval folds into the first interval on
	// its column that leaves its side open; the rest keep their places. No
	// bound folds back past a comparison whose types do not compare: the
	// rows that reach it decide whether it fails.
	from := 0
next:
	for i := range preds {
		p := &preds[i]
		ci := s.schema.ColIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("colstore: predicate on unknown column %q", p.Col)
		}
		typ := s.schema[ci].Type
		iv, ok := p.interval(typ)
		c := cond{interval: iv, col: ci}
		for j := from; ok && j < len(plan.preds); j++ {
			if o := &plan.preds[j]; o.col == ci && o.pred == nil && o.fold(iv) {
				continue next
			}
		}
		if !ok {
			c.interval, _ = p.interval(ValueType(p.Val))
			c.pred = p
		}
		plan.preds = append(plan.preds, c)
		if CheckComparable(typ, ValueType(p.Val)) != nil {
			from = len(plan.preds)
		}
	}
	return plan, nil
}

// Blocks returns the number of sealed block rows.
func (s *Segment) Blocks() int {
	if len(s.sealed) == 0 {
		return 0
	}
	return len(s.sealed[0])
}

// Scan streams the named columns (nil = all) through fn in batches, applying
// the optional predicate. The predicate column need not be in the projection.
// Delivered batches are only valid during the fn call: the scanner reuses
// decode buffers across blocks, and batches may be views of segment storage,
// sealed or tail (see ScanCursor.Next). fn must copy (not mutate) whatever it
// keeps.
func (s *Segment) Scan(cols []string, pred *Pred, fn func(*Batch) error) error {
	return s.ScanWithStats(cols, pred, nil, fn)
}

// ScanWithStats is Scan with per-scan observability: when st is non-nil,
// what the scan touched is added to it. Global telemetry counters are
// recorded either way. It drains one cursor over every block.
func (s *Segment) ScanWithStats(cols []string, pred *Pred, st *ScanStats, fn func(*Batch) error) error {
	var preds []Pred
	if pred != nil {
		preds = []Pred{*pred}
	}
	plan, err := s.planScan(cols, preds)
	if err != nil {
		return err
	}
	c := s.newCursor(plan, 0, plan.nblocks, true)
	defer func() {
		c.Close()
		if st != nil {
			st.Add(c.st)
		}
	}()
	for {
		batch, err := c.Next(context.Background())
		if err != nil || batch == nil {
			return err
		}
		if err := fn(batch); err != nil {
			return err
		}
	}
}

// ScanCursor is the only walk over a segment's sealed blocks: it covers a
// contiguous range of them — and, for the range that ends the segment, the
// unsealed tail — one call at a time, as batches (Next), as stored blocks
// (NextStored) or as typed entries (NextBlock). The push scans are this walk
// with a callback: ScanWithStats drains one cursor over every block.
// A cursor is owned by one goroutine; cursors over disjoint ranges of one
// segment may run concurrently (sealed blocks are immutable, decode state is
// per cursor).
type ScanCursor struct {
	s      *Segment
	plan   *scanPlan
	bi, hi int  // next sealed block, end of the range
	tail   bool // the tail is still to be delivered after the blocks
	// sel is the block's selection — what an index cut selects, then what the
	// predicates keep — refined in place, reused block over block.
	sel    []int
	bufs   *decodeBufs
	stored [][]byte // NextStored's reused result slice
	st     ScanStats
	// An index cursor (IndexCursor) delivers the rows at rowids, the selected
	// positions still ahead of it; at is the segment row block bi starts at.
	index  bool
	rowids []uint32
	at     int
}

// decodeBufs are a cursor's decode buffers, reused block over block: the
// batch it delivers, whose columns are each either the column's own decode
// buffer or its view of a PLAIN block in place (viewOrDecode), the predicates'
// columns (by column) and NextBlock's reader. Views and decode
// buffers are separate vectors, so the Reset and appends that refill a decode
// buffer never reach storage.
type decodeBufs struct {
	out *Batch
	// vecs back out's columns: first the decode buffers, then the views.
	vecs   []Vector
	preds  []*predBuf
	blocks *blockReader
	runs   runMatch // the first predicate's block, decoded to its runs or codes
	stamp  uint64   // counts the blocks match has read into preds
}

// newDecodeBufs makes the buffers of a cursor delivering schema's columns.
func newDecodeBufs(schema Schema) *decodeBufs {
	b := &decodeBufs{out: &Batch{Schema: schema, Cols: make([]*Vector, len(schema))}, vecs: make([]Vector, 2*len(schema))}
	for i, c := range schema {
		b.vecs[i].Type, b.vecs[len(schema)+i].Type = c.Type, c.Type
	}
	return b
}

// Pass hands c's decode buffers and selection to next, a cursor over another
// range of the same scan that has not started: ranges read one after another
// decode into one set of buffers. c's last batch is invalid from here on.
func (c *ScanCursor) Pass(next *ScanCursor) {
	if c.bufs != nil && next.bufs == nil && c.plan.outSchema.Equal(next.plan.outSchema) {
		next.bufs, c.bufs = c.bufs, nil
		next.sel, c.sel = c.sel, nil
	}
}

func (s *Segment) newCursor(plan *scanPlan, lo, hi int, tail bool) *ScanCursor {
	return &ScanCursor{s: s, plan: plan, bi: lo, hi: hi, tail: tail}
}

// ScanCursors plans one scan — the named columns (nil = all) of the rows that
// satisfy every predicate of preds, a conjunction evaluated in the order
// given (most selective first serves best) — and cuts it into cursors whose
// outputs, concatenated in order, are exactly that scan's output. A
// header-only pass over every predicate's zone maps (serial, deterministic)
// finds the surviving blocks; they are divided into min(k, survivors)
// contiguous runs of near-equal block count, each cursor taking the block
// range that holds its run, the last one the tail as well. There is always at
// least one cursor, so the skipped-block accounting of a fully pruned segment
// is not lost.
func (s *Segment) ScanCursors(cols []string, preds []Pred, k int) ([]*ScanCursor, error) {
	plan, err := s.planScan(cols, preds)
	if err != nil {
		return nil, err
	}
	survivors := make([]int, 0, plan.nblocks)
	for bi := 0; bi < plan.nblocks; bi++ {
		if !plan.blockSkipped(s, bi) {
			survivors = append(survivors, bi)
		}
	}
	n := max(1, min(k, len(survivors)))
	out := make([]*ScanCursor, n)
	lo := 0
	for i := range out {
		hi := plan.nblocks
		if i < n-1 {
			hi = survivors[(i+1)*len(survivors)/n]
		}
		out[i] = s.newCursor(plan, lo, hi, i == n-1)
		lo = hi
	}
	return out, nil
}

// MaxRows bounds the rows the cursor has yet to deliver: the rows of its
// remaining blocks that survive the zone maps, plus the tail's, or under an
// index the rows it selected. Without predicates the bound is the count.
func (c *ScanCursor) MaxRows() int {
	if c.index {
		return len(c.rowids)
	}
	n := 0
	for bi := c.bi; bi < c.hi; bi++ {
		if !c.plan.blockSkipped(c.s, bi) {
			n += c.s.sealed[0][bi].rows
		}
	}
	if c.tail {
		n += c.s.tail.Len()
	}
	return n
}

// Next returns the next non-empty batch of the range, or nil at its end.
// The batch is valid until the next call: decode buffers are reused across
// blocks. It may alias segment storage — a PLAIN INTEGER or FLOAT column read
// whole is a view of its sealed block, a tail batch a view of the tail — so
// consumers read it and never write it, not even after a Reset. Cancellation is
// checked before every block decode (and before the tail), so a canceled
// query stops within one storage block; the error wraps verr.ErrCanceled.
func (c *ScanCursor) Next(ctx context.Context) (*Batch, error) {
	_, _, b, err := c.NextStored(ctx, 0)
	return b, err
}

// NextStored is Next for a consumer that can take a block row as stored: when
// the cursor filters no rows and the next surviving block row holds at most
// maxRows rows, it returns that row's encoded blocks, one per scanned column,
// and their row count, undecoded; otherwise the batch Next would return. Both
// are nil at the end of the range. The blocks are the segment's own storage:
// immutable, so they stay valid for as long as the segment is referenced, but
// read-only — they must never be written to or handed to a pool; the slice
// holding them is reused by the next call. A block row handed out stored is
// counted in the cursor's stats as scanned, its bytes as read.
func (c *ScanCursor) NextStored(ctx context.Context, maxRows int) (blocks [][]byte, rows int, b *Batch, err error) {
	if c.bufs == nil {
		c.bufs = newDecodeBufs(c.plan.outSchema)
	}
	for c.bi < c.hi {
		if err := verr.Canceled(ctx.Err()); err != nil {
			return nil, 0, nil, err
		}
		bi := c.bi
		c.bi++
		if c.untouched(bi) {
			c.st.BlocksSkipped++
			continue
		}
		c.st.BlocksScanned++
		if n := c.s.sealed[0][bi].rows; len(c.plan.preds) == 0 && !c.index && n <= maxRows {
			c.stored = c.stored[:0]
			for _, ci := range c.plan.colIdx {
				data := c.s.sealed[ci][bi].data
				c.st.BytesRead += len(data)
				c.stored = append(c.stored, data)
			}
			c.st.RowsOut += n
			return c.stored, n, nil, nil
		}
		batch, err := c.decode(bi)
		if err != nil {
			return nil, 0, nil, err
		}
		if batch.Len() == 0 {
			continue
		}
		c.st.RowsOut += batch.Len()
		return nil, 0, batch, nil
	}
	if !c.tail {
		return nil, 0, nil, nil
	}
	c.tail = false
	if err := verr.Canceled(ctx.Err()); err != nil {
		return nil, 0, nil, err
	}
	b, err = c.scanTail()
	return nil, 0, b, err
}

// untouched reports whether the cursor leaves sealed block bi undecoded: a
// zone map excludes it or, under an index, it holds no selected row.
func (c *ScanCursor) untouched(bi int) bool {
	if c.index {
		return len(c.cut(c.at+c.s.sealed[0][bi].rows)) == 0
	}
	return c.plan.blockSkipped(c.s, bi)
}

// cut moves an index cursor's selected rows below segment row end off rowids
// into its selection, as offsets from at, and advances at to end.
func (c *ScanCursor) cut(end int) []int {
	sel := c.sel[:0]
	for len(c.rowids) > 0 && int(c.rowids[0]) < end {
		sel = append(sel, int(c.rowids[0])-c.at)
		c.rowids = c.rowids[1:]
	}
	c.at, c.sel = end, sel
	return sel
}

// Stats reports what the cursor has touched so far.
func (c *ScanCursor) Stats() ScanStats { return c.st }

// Close flushes the cursor's stats into the global scan counters. Call it
// once, when the cursor is done with.
func (c *ScanCursor) Close() {
	mScanRows.Add(int64(c.st.RowsOut))
	mScanBytes.Add(int64(c.st.BytesRead))
	mBlocksScanned.Add(int64(c.st.BlocksScanned))
	mBlocksSkipped.Add(int64(c.st.BlocksSkipped))
	mBlocksCompressed.Add(int64(c.st.BlocksCompressed))
	mBlocksAllMatch.Add(int64(c.st.BlocksAllMatch))
}

// scanTail projects the unsealed tail rows the cursor selects — those its
// index names and its predicates keep, or, as views of the tail, all of them
// — gathered into a fresh batch. It returns nil when no tail row survives.
// Under an index only the selected tail rows count as examined.
func (c *ScanCursor) scanTail() (*Batch, error) {
	tail, n := c.s.tail, c.s.tail.Len()
	var match []int // the selected rows, when selected is set
	selected := c.index || len(c.plan.preds) > 0
	if c.index {
		if match = c.cut(c.at + n); len(c.rowids) > 0 {
			return nil, fmt.Errorf("colstore: index row %d out of range (%d rows)", c.rowids[0], c.s.rows)
		}
		c.st.TailRows += len(match)
	} else {
		c.st.TailRows += n
	}
	for j := range c.plan.preds {
		if n == 0 || (j > 0 || c.index) && len(match) == 0 {
			break
		}
		p := &c.plan.preds[j]
		m, err := p.selectRows(tail.Cols[p.col], match, c.sel)
		if err != nil {
			return nil, err
		}
		match, c.sel = m, m
	}
	if selected {
		n = len(match)
	}
	if n == 0 {
		return nil, nil
	}
	out := &Batch{Schema: c.plan.outSchema, Cols: make([]*Vector, len(c.plan.colIdx))}
	for i, ci := range c.plan.colIdx {
		v := tail.Cols[ci]
		if selected {
			v = v.Gather(match)
		} else {
			// A [0, len) view: tail storage is append-only (new rows land
			// past the view), and scan consumers never mutate delivered
			// batches, so the view stays stable without a copy per scan.
			v = v.Slice(0, n)
		}
		out.Cols[i] = v
	}
	c.st.RowsOut += n
	return out, nil
}

// decode reads sealed block row bi into the cursor's batch, reused block
// over block: every projected column whole, or the rows the index selects
// and the predicates keep. A block whose rows are all selected decodes as if
// there were no selection — a PLAIN INTEGER or FLOAT column as a view of the
// block in place; one where few are, or any PLAIN INTEGER or FLOAT block,
// decodes only those rows (late materialization: DecodeBlockSel touches only
// the selected rows, where the bulk decoder streams the whole payload, and
// its edge is gone well before half the block survives, so the strategy
// flips at a quarter — except on a fixed-width PLAIN payload, which it reads
// by random access); the rest decode whole and keep the selected rows in
// place. All of them produce identical values.
func (c *ScanCursor) decode(bi int) (*Batch, error) {
	s, plan, st, bufs := c.s, c.plan, &c.st, c.bufs
	out := bufs.out
	for i := range out.Cols {
		out.Cols[i] = &bufs.vecs[i]
	}
	out.Reset()
	rows := s.sealed[0][bi].rows
	var match []int
	if c.index {
		match = c.sel // cut left the block's selection there
	}
	if len(plan.preds) > 0 {
		m, all, err := c.match(bi, match)
		if err != nil {
			return nil, err
		}
		if !all {
			if len(m) == 0 {
				return out, nil
			}
			match = m
		}
	}
	if len(match) == rows {
		match = nil
	}
	for i, ci := range plan.colIdx {
		data := s.sealed[ci][bi].data
		st.BytesRead += len(data)
		own := out.Cols[i]
		var err error
		switch {
		case match == nil:
			out.Cols[i], err = viewOrDecode(own, &bufs.vecs[len(out.Cols)+i], data)
		case len(match)*4 < rows || plainNumeric(data):
			own.reserve(len(match))
			err = DecodeBlockSel(own, data, match)
		default:
			if err = DecodeBlockInto(own, data); err == nil {
				own.keep(match)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plainNumeric reports whether data is a PLAIN INTEGER or FLOAT block, whose
// selected rows DecodeBlockSel reads by random access.
func plainNumeric(data []byte) bool {
	typ, enc, _, _, err := blockHeader(data, anyType)
	return err == nil && enc == EncPlain && (typ == TypeInt64 || typ == TypeFloat64)
}

// match evaluates the cursor's conds over sealed block bi in order and
// returns the rows that satisfy them all; all is true when that is every row
// of the block. Outside an index, a cond the block's zone map decides
// (blockAllMatch) is not evaluated, and when every one is, no predicate
// column is read. The first cond evaluated runs over every row — on the
// encoded form when the block's encoding allows it — or, under an index,
// over the rows sel selects; each later one over the rows still selected,
// refining the selection in place. An interval is one pass whatever its
// bounds. A column several conds name is read, and decoded, once per block.
// The selection lives in the cursor's own slice.
func (c *ScanCursor) match(bi int, sel []int) (_ []int, all bool, err error) {
	plan, bufs := c.plan, c.bufs
	bufs.stamp++ // a predicate buffer holds block bi once it carries this stamp
	first, all := !c.index, !c.index
	for j := range plan.preds {
		p := &plan.preds[j]
		ref := c.s.sealed[p.col][bi]
		if !c.index && p.blockAllMatch(ref) {
			continue
		}
		all = false
		if !first && len(sel) == 0 {
			break
		}
		typ := c.s.schema[p.col].Type
		pb := bufs.pred(p.col, typ)
		if pb.read != bufs.stamp {
			pb.read = bufs.stamp
			c.st.BytesRead += len(ref.data)
		}
		if first {
			first = false
			m, handled, err := bufs.runs.match(ref.data, typ, p, c.sel)
			if err != nil {
				return nil, false, err
			}
			if handled {
				c.st.BlocksCompressed++
				sel, c.sel = m, m
				continue
			}
		}
		if pb.decoded != bufs.stamp {
			if pb.cur, err = viewOrDecode(&pb.own, &pb.view, ref.data); err != nil {
				return nil, false, err
			}
			pb.decoded = bufs.stamp
		}
		m, err := p.selectRows(pb.cur, sel, c.sel)
		if err != nil {
			return nil, false, err
		}
		sel, c.sel = m, m
	}
	if all {
		c.st.BlocksAllMatch++
	}
	return sel, all, nil
}

// predBuf is one predicate column's decode buffer and view; cur is the one
// holding the block last decoded (viewOrDecode), which a later predicate on
// the same column reads again. read and decoded are the stamps of the block
// whose bytes were last counted and decoded: a predicate the zone map decides
// or one answered on the encoded form leaves the buffer holding an earlier
// block, which a later predicate on the column must not read.
type predBuf struct {
	own, view     Vector
	cur           *Vector
	read, decoded uint64
}

// pred is the decode buffer of predicate column k, of type typ.
func (b *decodeBufs) pred(k int, typ Type) *predBuf {
	for len(b.preds) <= k {
		b.preds = append(b.preds, nil)
	}
	if b.preds[k] == nil || b.preds[k].own.Type != typ {
		b.preds[k] = &predBuf{own: Vector{Type: typ}, view: Vector{Type: typ}}
	}
	return b.preds[k]
}

// ReadAll materializes the whole segment (projection cols, nil = all) into
// an owned batch (scan batches themselves are transient views).
func (s *Segment) ReadAll(cols []string) (*Batch, error) {
	var out *Batch
	err := s.Scan(cols, nil, func(b *Batch) error {
		if out == nil {
			out = NewBatch(b.Schema)
		}
		return out.AppendBatch(b)
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		schema := s.schema
		if cols != nil {
			schema, err = s.schema.Project(cols)
			if err != nil {
				return nil, err
			}
		}
		out = NewBatch(schema)
	}
	return out, nil
}

// Clone returns a copy-on-write snapshot of the segment for MVCC version
// publication: sealed block data is immutable after Seal, so clones share it
// (the per-column blockRef slices are copied with capacity capped at their
// length, forcing any later append — on either side — to reallocate rather
// than clobber the shared backing array), and the tail is append-only, so
// clones share its arrays and claim as well (see Segment.tail). After a
// clone, appending to one segment is invisible to the other.
func (s *Segment) Clone() *Segment {
	out := &Segment{
		schema:    s.schema,
		blockRows: s.blockRows,
		sealed:    make([][]blockRef, len(s.sealed)),
		tail:      s.tail.Slice(0, s.tail.Len()),
		claim:     s.claim,
		rows:      s.rows,
	}
	for i, col := range s.sealed {
		out.sealed[i] = col[:len(col):len(col)]
	}
	if len(s.indexes) > 0 {
		// Trees are copy-on-write: share them, copy only the map, so an
		// Append on either side republishes into its own map.
		out.indexes = make(map[string]*indexTree, len(s.indexes))
		for c, t := range s.indexes {
			out.indexes[c] = t
		}
	}
	return out
}
