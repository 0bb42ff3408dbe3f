package colstore

import (
	"context"
	"fmt"
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
				if b != nil || c.pred != nil || n > room || len(blocks) != len(schema) {
					t.Fatalf("NextStored(%d) handed out %d stored blocks of %d rows beside batch %v (pred %v)", room, len(blocks), n, b, c.pred)
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
		if rows > bound || (c.pred == nil && rows != bound) {
			t.Fatalf("cursor delivered %d rows, MaxRows said %d (pred %v)", rows, bound, c.pred)
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
// read to st when st is non-nil: the push scan with a context and zone
// predicates.
func pushScan(ctx context.Context, seg *Segment, cols []string, pred *Pred, zone []Pred, st *ScanStats, fn func(*Batch) error) error {
	curs, err := seg.ScanCursors(cols, pred, zone, 1)
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
// ScanStats equal the single scan's.
func TestCursorSplitsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct{ rows, blockRows int }{
		{5000, 64}, // many blocks and a tail
		{4096, 64}, // sealed only
		{40, 64},   // tail only
		{0, 64},    // empty
	} {
		seg := randomSegment(t, int64(shape.rows)+1, shape.rows, shape.blockRows)
		zone := []Pred{{Col: "v", Op: OpLT, Val: float64(400)}}
		for pi, pred := range cursorPreds {
			for _, cols := range [][]string{nil, {"v", "tag"}} {
				var want *Batch
				var wantStats ScanStats
				err := pushScan(context.Background(), seg, cols, pred, zone, &wantStats, func(b *Batch) error {
					if want == nil {
						want = NewBatch(b.Schema)
					}
					return want.AppendBatch(b)
				})
				if err != nil {
					t.Fatal(err)
				}
				plan, err := seg.planScan(cols, pred, zone)
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
						curs = append(curs, seg.newCursor(plan, pred, cuts[i], cuts[i+1], i+2 == len(cuts)))
					}
					got, gotStats := drainCursors(t, plan.outSchema, curs)
					if err := batchesEqual(want, got); err != nil {
						t.Fatalf("rows %d pred %d cuts %v: %v", shape.rows, pi, cuts, err)
					}
					if gotStats != wantStats {
						t.Fatalf("rows %d pred %d cuts %v: stats %+v, scan %+v", shape.rows, pi, cuts, gotStats, wantStats)
					}
				}
				// The planner's own cut: k ranges over the surviving blocks.
				for _, k := range []int{1, 2, 4, 7, 1000} {
					curs, err := seg.ScanCursors(cols, pred, zone, k)
					if err != nil {
						t.Fatal(err)
					}
					survivors := wantStats.BlocksScanned
					if n := max(1, min(k, survivors)); len(curs) != n {
						t.Fatalf("rows %d pred %d k %d: %d cursors over %d surviving blocks, want %d", shape.rows, pi, k, len(curs), survivors, n)
					}
					got, gotStats := drainCursors(t, plan.outSchema, curs)
					if err := batchesEqual(want, got); err != nil {
						t.Fatalf("rows %d pred %d k %d: %v", shape.rows, pi, k, err)
					}
					if gotStats != wantStats {
						t.Fatalf("rows %d pred %d k %d: stats %+v, scan %+v", shape.rows, pi, k, gotStats, wantStats)
					}
				}
			}
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
	curs, err := seg.ScanCursors(nil, &Pred{Col: "x", Op: OpGE, Val: int64(200)}, nil, 4)
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
	curs, err := seg.ScanCursors(nil, nil, nil, 8)
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
func drainRows(t testing.TB, seg *Segment, cols []string, pred *Pred, k int) *Batch {
	t.Helper()
	curs, err := seg.ScanCursors(cols, pred, nil, k)
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

// TestCursorPredicateDecodeMatchesReference: under an exact predicate a
// block decodes one of three ways — whole when every row matches, only the
// matching rows when under a quarter do, whole into scratch and gathered
// otherwise — into buffers reused block over block. Each must deliver what
// decoding everything and filtering row by row delivers, and what the push
// scan delivers.
func TestCursorPredicateDecodeMatchesReference(t *testing.T) {
	seg := NewSegment(Schema{{Name: "id", Type: TypeInt64}, {Name: "v", Type: TypeFloat64}, {Name: "tag", Type: TypeString}}, 64)
	b := NewBatch(seg.Schema())
	for i := 0; i < 64*20+17; i++ {
		if err := b.AppendRow(int64(i), float64(i%7)-3, fmt.Sprintf("t%d", i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	all, err := seg.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []*Pred{
		{Col: "id", Op: OpLT, Val: int64(900)},    // whole blocks pass, then none
		{Col: "v", Op: OpGT, Val: float64(2)},     // a seventh of each block
		{Col: "v", Op: OpNE, Val: int64(0)},       // six sevenths
		{Col: "tag", Op: OpEQ, Val: "t3"},         // a fifth, dictionary matched
		{Col: "id", Op: OpGE, Val: int64(10_000)}, // nothing
	} {
		match, err := pred.matchRows(all.Cols[all.Schema.ColIndex(pred.Col)])
		if err != nil {
			t.Fatal(err)
		}
		want, err := all.Gather(match).Project([]string{"tag", "v"})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3} {
			if err := batchesEqual(want, drainRows(t, seg, []string{"tag", "v"}, pred, k)); err != nil {
				t.Fatalf("%+v over %d cursors: %v", pred, k, err)
			}
		}
		push := NewBatch(want.Schema)
		if err := seg.ScanWithStats([]string{"tag", "v"}, pred, nil, push.AppendBatch); err != nil {
			t.Fatal(err)
		}
		if err := batchesEqual(want, push); err != nil {
			t.Fatalf("%+v, push scan: %v", pred, err)
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
				curs, err := seg.ScanCursors([]string{"id", "v"}, pred, nil, 1)
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
	want := drainRows(t, seg, []string{"id", "tag"}, pred, 1)
	read := func(pass bool) *Batch {
		curs, err := seg.ScanCursors([]string{"id", "tag"}, pred, nil, 8)
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
