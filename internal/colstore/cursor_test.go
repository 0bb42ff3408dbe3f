package colstore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// drainCursors concatenates the cursors' outputs in order and sums their
// stats. It reads through NextStored with a room that varies call by call —
// none, a row short of the tests' 64-row blocks, exactly a block, plenty — so
// block rows arrive stored or decoded by turns; either way they are the same
// rows and cost the same stats.
func drainCursors(t testing.TB, schema Schema, curs []*ScanCursor) (*Batch, ScanStats) {
	t.Helper()
	out := NewBatch(schema)
	var st ScanStats
	call := 0
	for _, c := range curs {
		bound := c.MaxRows()
		rows := 0
		for {
			room := []int{0, 63, 64, 1 << 30}[call%4]
			call++
			blocks, n, b, err := c.NextStored(context.Background(), room)
			if err != nil {
				t.Fatal(err)
			}
			if blocks == nil && b == nil {
				break
			}
			if blocks != nil {
				if b != nil || len(c.plan.preds) > 0 || n > room || len(blocks) != len(schema) {
					t.Fatalf("NextStored(%d) handed out %d stored blocks of %d rows beside batch %v (preds %v)", room, len(blocks), n, b, c.plan.preds)
				}
				b = NewBatch(schema)
				for j, blk := range blocks {
					if err := DecodeBlockInto(b.Cols[j], blk); err != nil {
						t.Fatal(err)
					}
				}
				if b.Len() != n {
					t.Fatalf("stored blocks hold %d rows, NextStored said %d", b.Len(), n)
				}
			}
			rows += b.Len()
			if err := out.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if rows > bound || (len(c.plan.preds) == 0 && rows != bound) {
			t.Fatalf("cursor delivered %d rows, MaxRows said %d (preds %v)", rows, bound, c.plan.preds)
		}
		if c.MaxRows() != 0 {
			t.Fatalf("a drained cursor still bounds %d rows", c.MaxRows())
		}
		st.Add(c.Stats())
		c.Close()
	}
	return out, st
}

// pushScan drains one cursor over the whole scan through fn, adding what it
// read to st when st is non-nil: the push scan with a context and a
// conjunction of predicates.
func pushScan(ctx context.Context, seg *Segment, cols []string, preds []Pred, st *ScanStats, fn func(*Batch) error) error {
	curs, err := seg.ScanCursors(cols, preds, 1)
	if err != nil {
		return err
	}
	c := curs[0]
	defer func() {
		c.Close()
		if st != nil {
			st.Add(c.Stats())
		}
	}()
	for {
		b, err := c.Next(ctx)
		if err != nil || b == nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// predList is the conjunction of the one predicate p, or of none.
func predList(p *Pred) []Pred {
	if p == nil {
		return nil
	}
	return []Pred{*p}
}

var cursorPreds = []*Pred{
	nil,
	{Col: "id", Op: OpLT, Val: int64(200)},
	{Col: "v", Op: OpGE, Val: float64(250)},
	{Col: "tag", Op: OpEQ, Val: "t3"},
	{Col: "ok", Op: OpEQ, Val: true},
	{Col: "id", Op: OpGT, Val: int64(5000)}, // every block zone-map skipped
}

// Any split of [0, nblocks) into cursors — the last one taking the tail —
// concatenated, is the serial scan: same rows, same bits, and the summed
// ScanStats equal the single scan's — under each predicate alone and
// conjoined with a second one.
func TestCursorSplitsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct{ rows, blockRows int }{
		{5000, 64}, // many blocks and a tail
		{4096, 64}, // sealed only
		{40, 64},   // tail only
		{0, 64},    // empty
	} {
		seg := randomSegment(t, int64(shape.rows)+1, shape.rows, shape.blockRows)
		second := Pred{Col: "v", Op: OpLT, Val: float64(400)}
		for pi, pred := range cursorPreds {
			for _, preds := range [][]Pred{predList(pred), append(predList(pred), second)} {
				for _, cols := range [][]string{nil, {"v", "tag"}} {
					checkCursorSplits(t, rng, seg, cols, preds, fmt.Sprintf("rows %d pred %d of %d", shape.rows, pi, len(preds)))
				}
			}
		}
	}
}

func checkCursorSplits(t *testing.T, rng *rand.Rand, seg *Segment, cols []string, preds []Pred, label string) {
	t.Helper()
	var want *Batch
	var wantStats ScanStats
	err := pushScan(context.Background(), seg, cols, preds, &wantStats, func(b *Batch) error {
		if want == nil {
			want = NewBatch(b.Schema)
		}
		return want.AppendBatch(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := seg.planScan(cols, preds)
	if err != nil {
		t.Fatal(err)
	}
	if want == nil {
		want = NewBatch(plan.outSchema)
	}
	for trial := 0; trial < 8; trial++ {
		// Random cut points, duplicates (empty ranges) allowed.
		cuts := []int{0, plan.nblocks}
		for n := rng.Intn(6); n > 0; n-- {
			cuts = append(cuts, rng.Intn(plan.nblocks+1))
		}
		sort.Ints(cuts)
		var curs []*ScanCursor
		for i := 0; i+1 < len(cuts); i++ {
			curs = append(curs, seg.newCursor(plan, cuts[i], cuts[i+1], i+2 == len(cuts)))
		}
		got, gotStats := drainCursors(t, plan.outSchema, curs)
		if err := batchesEqual(want, got); err != nil {
			t.Fatalf("%s cuts %v: %v", label, cuts, err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s cuts %v: stats %+v, scan %+v", label, cuts, gotStats, wantStats)
		}
	}
	// The planner's own cut: k ranges over the surviving blocks.
	for _, k := range []int{1, 2, 4, 7, 1000} {
		curs, err := seg.ScanCursors(cols, preds, k)
		if err != nil {
			t.Fatal(err)
		}
		survivors := wantStats.BlocksScanned
		if n := max(1, min(k, survivors)); len(curs) != n {
			t.Fatalf("%s k %d: %d cursors over %d surviving blocks, want %d", label, k, len(curs), survivors, n)
		}
		got, gotStats := drainCursors(t, plan.outSchema, curs)
		if err := batchesEqual(want, got); err != nil {
			t.Fatalf("%s k %d: %v", label, k, err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s k %d: stats %+v, scan %+v", label, k, gotStats, wantStats)
		}
	}
}

// ScanCursors balances surviving blocks, not block positions: with a zone
// map pruning the first half of the segment, every range still gets work.
func TestScanCursorsBalanceSurvivors(t *testing.T) {
	schema := Schema{{Name: "x", Type: TypeInt64}}
	seg := NewSegment(schema, 10)
	b := NewBatch(schema)
	for i := 0; i < 400; i++ {
		if err := b.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	curs, err := seg.ScanCursors(nil, []Pred{{Col: "x", Op: OpGE, Val: int64(200)}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(curs) != 4 {
		t.Fatalf("%d cursors, want 4", len(curs))
	}
	for i, c := range curs {
		if got := c.MaxRows(); got != 50 {
			t.Fatalf("cursor %d bounds %d rows, want 50 (5 of the 20 surviving blocks)", i, got)
		}
	}
}

// Concurrent cursors over disjoint ranges of one segment share nothing
// mutable (run under -race).
func TestCursorsConcurrent(t *testing.T) {
	seg := randomSegment(t, 9, 6000, 64)
	want, wantStats := collectScan(t, seg, nil, nil, 0)
	curs, err := seg.ScanCursors(nil, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*Batch, len(curs))
	errs := make(chan error, len(curs))
	for i, c := range curs {
		outs[i] = NewBatch(seg.Schema())
		go func(c *ScanCursor, out *Batch) {
			defer c.Close()
			for {
				b, err := c.Next(context.Background())
				if err != nil || b == nil {
					errs <- err
					return
				}
				if err := out.AppendBatch(b); err != nil {
					errs <- err
					return
				}
			}
		}(c, outs[i])
	}
	for range curs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got := NewBatch(seg.Schema())
	var gotStats ScanStats
	for i, o := range outs {
		if err := got.AppendBatch(o); err != nil {
			t.Fatal(err)
		}
		gotStats.Add(curs[i].Stats())
	}
	if err := batchesEqual(want, got); err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("stats %+v, scan %+v", gotStats, wantStats)
	}
}

// drainRows reads every cursor of a scan, copying the rows out.
func drainRows(t testing.TB, seg *Segment, cols []string, preds []Pred, k int) *Batch {
	t.Helper()
	curs, err := seg.ScanCursors(cols, preds, k)
	if err != nil {
		t.Fatal(err)
	}
	out := NewBatch(curs[0].plan.outSchema)
	for _, c := range curs {
		for {
			b, err := c.Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if err := out.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	return out
}

// TestCursorPredicateDecodeMatchesReference: under a conjunction of exact
// predicates the first selects a block's rows — on the encoded form for RLE
// and dictionary blocks, after a decode for PLAIN and DELTA ones — each later
// one refines that selection, a column two predicates name decoding once,
// and the block then decodes one of three ways — whole when every row
// matches, only the matching rows when under a quarter do, whole into
// scratch and gathered otherwise — into buffers reused block over block. An
// index cursor refines the rows its probe selects the same way. Each must
// deliver what reading everything and keeping the rows every predicate holds
// for under CompareValues delivers, sealed blocks and the tail alike.
func TestCursorPredicateDecodeMatchesReference(t *testing.T) {
	schema := Schema{
		{Name: "id", Type: TypeInt64},   // ascending: DELTA
		{Name: "v", Type: TypeFloat64},  // NaN, ±0 and ±Inf row by row: PLAIN
		{Name: "tag", Type: TypeString}, // five values alternating: dictionary
		{Name: "r", Type: TypeInt64},    // runs of 50: RLE
		{Name: "f", Type: TypeFloat64},  // runs of 40 over NaN and ±0: RLE
	}
	seg := NewSegment(schema, 64)
	b := NewBatch(schema)
	vs := []float64{-3, math.Copysign(0, -1), 0, math.NaN(), 2.5, math.Inf(1), math.Inf(-1)}
	fs := []float64{0, math.NaN(), math.Copysign(0, -1), 1.5, -2}
	for i := 0; i < 64*20+17; i++ {
		if err := b.AppendRow(int64(i), vs[i%7], fmt.Sprintf("t%d", i%5), int64(i/50%4), fs[i/40%5]); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil { // the last 17 rows stay in the tail
		t.Fatal(err)
	}
	if err := seg.BuildIndex("id"); err != nil {
		t.Fatal(err)
	}
	all, err := seg.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, preds := range [][]Pred{
		{{Col: "id", Op: OpLT, Val: int64(900)}},    // whole blocks pass, then none
		{{Col: "v", Op: OpGT, Val: float64(2)}},     // a seventh of each block
		{{Col: "v", Op: OpNE, Val: int64(0)}},       // NaN and both zeros equal 0
		{{Col: "tag", Op: OpEQ, Val: "t3"}},         // a fifth, dictionary matched
		{{Col: "id", Op: OpGE, Val: int64(10_000)}}, // nothing
		{{Col: "f", Op: OpEQ, Val: float64(0)}},     // RLE runs of NaN, -0 and +0
		{{Col: "v", Op: OpLE, Val: nan}},            // a NaN literal: every row
		{{Col: "id", Op: OpGE, Val: int64(300)}, {Col: "id", Op: OpLT, Val: int64(700)}},
		{{Col: "id", Op: OpGE, Val: int64(700)}, {Col: "id", Op: OpLT, Val: int64(300)}}, // inverted: empty
		{{Col: "id", Op: OpGE, Val: int64(500)}, {Col: "id", Op: OpLT, Val: int64(500)}}, // empty
		{{Col: "id", Op: OpGT, Val: float64(1000.5)}, {Col: "id", Op: OpLE, Val: float64(1290)}},
		{{Col: "id", Op: OpGE, Val: int64(1200)}, {Col: "id", Op: OpLE, Val: int64(1290)}, {Col: "v", Op: OpEQ, Val: float64(0)}},
		{{Col: "tag", Op: OpGE, Val: "t1"}, {Col: "tag", Op: OpLT, Val: "t3"}, {Col: "v", Op: OpNE, Val: float64(0)}},
		{{Col: "v", Op: OpGT, Val: int64(-4)}, {Col: "tag", Op: OpEQ, Val: "t3"}},
		{{Col: "r", Op: OpEQ, Val: int64(2)}, {Col: "f", Op: OpLE, Val: float64(0)}},
		{{Col: "f", Op: OpGE, Val: float64(-1)}, {Col: "r", Op: OpNE, Val: float64(1)}, {Col: "id", Op: OpLT, Val: int64(1000)}},
		{{Col: "r", Op: OpLT, Val: int64(3)}, {Col: "r", Op: OpGT, Val: int64(0)}, {Col: "f", Op: OpEQ, Val: nan}},
	} {
		var keep []int
		for i := 0; i < all.Len(); i++ {
			ok := true
			for _, p := range preds {
				c, err := CompareValues(all.Cols[all.Schema.ColIndex(p.Col)].Value(i), p.Val)
				if err != nil {
					t.Fatal(err)
				}
				ok = ok && p.Op.Match(c)
			}
			if ok {
				keep = append(keep, i)
			}
		}
		want, err := all.Gather(keep).Project([]string{"tag", "v"})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3} {
			if err := batchesEqual(want, drainRows(t, seg, []string{"tag", "v"}, preds, k)); err != nil {
				t.Fatalf("%v over %d cursors: %v", preds, k, err)
			}
		}
		if len(preds) == 1 {
			push := NewBatch(want.Schema)
			if err := seg.ScanWithStats([]string{"tag", "v"}, &preds[0], nil, push.AppendBatch); err != nil {
				t.Fatal(err)
			}
			if err := batchesEqual(want, push); err != nil {
				t.Fatalf("%v, push scan: %v", preds, err)
			}
		}
		for probe := 1; probe <= min(2, len(preds)); probe++ {
			c, handled, err := seg.IndexCursor([]string{"tag", "v"}, preds, probe)
			if err != nil {
				t.Fatal(err)
			}
			if !handled {
				continue
			}
			got := NewBatch(want.Schema)
			for {
				b, err := c.Next(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				if err := got.AppendBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()
			if err := batchesEqual(want, got); err != nil {
				t.Fatalf("%v, index cursor probing %d: %v", preds, probe, err)
			}
		}
	}
}

// TestCursorPredicateReusesBuffers: a cursor under a predicate decodes into
// buffers it keeps block over block, and a block whose rows all match is
// handed over without a gathered copy — so reading four times the blocks
// allocates nothing more, whichever way the blocks decode.
func TestCursorPredicateReusesBuffers(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	segOf := func(blocks int) *Segment {
		seg := NewSegment(Schema{{Name: "id", Type: TypeInt64}, {Name: "v", Type: TypeFloat64}}, 256)
		b := NewBatch(seg.Schema())
		for i := 0; i < 256*blocks; i++ {
			if err := b.AppendRow(int64(i), float64(i%8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
		return seg
	}
	small, large := segOf(8), segOf(32)
	for _, pred := range []*Pred{
		{Col: "id", Op: OpGE, Val: int64(0)},  // every row
		{Col: "v", Op: OpLT, Val: float64(1)}, // an eighth: selective decode
		{Col: "v", Op: OpLT, Val: float64(6)}, // three quarters: decode and gather
	} {
		allocs := func(seg *Segment) float64 {
			return testing.AllocsPerRun(5, func() {
				curs, err := seg.ScanCursors([]string{"id", "v"}, predList(pred), 1)
				if err != nil {
					t.Fatal(err)
				}
				for {
					b, err := curs[0].Next(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
				}
				curs[0].Close()
			})
		}
		if a, b := allocs(small), allocs(large); b > a {
			t.Errorf("%+v: %.0f allocations over 8 blocks, %.0f over 32", pred, a, b)
		}
	}
}

// TestCursorPassHandsOverBuffers: cursors over the ranges of one scan, read
// one after another, decode into one set of buffers when each passes its own
// to the next — the same rows, and fewer allocations than a set per cursor.
func TestCursorPassHandsOverBuffers(t *testing.T) {
	seg := randomSegment(t, 13, 64*24, 64)
	pred := &Pred{Col: "v", Op: OpLT, Val: float64(300)}
	want := drainRows(t, seg, []string{"id", "tag"}, predList(pred), 1)
	read := func(pass bool) *Batch {
		curs, err := seg.ScanCursors([]string{"id", "tag"}, predList(pred), 8)
		if err != nil {
			t.Fatal(err)
		}
		out := NewBatch(curs[0].plan.outSchema)
		for i, c := range curs {
			if pass && i > 0 {
				curs[i-1].Pass(c)
			}
			for {
				b, err := c.Next(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				if err := out.AppendBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()
		}
		return out
	}
	if err := batchesEqual(want, read(true)); err != nil {
		t.Fatal(err)
	}
	with := testing.AllocsPerRun(3, func() { read(true) })
	without := testing.AllocsPerRun(3, func() { read(false) })
	if with >= without {
		t.Fatalf("%.0f allocations passing buffers on, %.0f without", with, without)
	}
}
