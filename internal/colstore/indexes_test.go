package colstore

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func indexTestSegment(t *testing.T, rng *rand.Rand, rows, blockRows int) *Segment {
	t.Helper()
	schema := Schema{
		{Name: "id", Type: TypeInt64},
		{Name: "x", Type: TypeFloat64},
		{Name: "s", Type: TypeString},
		{Name: "flag", Type: TypeBool},
	}
	seg := NewSegment(schema, blockRows)
	b := NewBatch(schema)
	for i := 0; i < rows; i++ {
		x := math.Round(rng.Float64()*400) / 4
		if rng.Intn(40) == 0 {
			x = math.NaN()
		}
		if err := b.AppendRow(int64(rng.Intn(200)-100), x, string(rune('a'+rng.Intn(8))), rng.Intn(2) == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	return seg
}

// scanFiltered is the reference: a plain filtered scan materialized whole.
func scanFiltered(t *testing.T, seg *Segment, cols []string, pred *Pred) *Batch {
	t.Helper()
	var out *Batch
	err := seg.ScanWithStats(cols, pred, nil, func(b *Batch) error {
		if out == nil {
			out = NewBatch(b.Schema)
		}
		return out.AppendBatch(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		sch, _ := seg.Schema().Project(cols)
		out = NewBatch(sch)
	}
	return out
}

// indexScan drains an index cursor over cols under pred into one batch.
func indexScan(t *testing.T, seg *Segment, cols []string, pred *Pred) (*Batch, ScanStats) {
	t.Helper()
	c, handled, err := seg.IndexCursor(cols, []Pred{*pred}, 1)
	if err != nil || !handled {
		t.Fatalf("pred %+v: handled %v, err %v", *pred, handled, err)
	}
	defer c.Close()
	out := NewBatch(c.plan.outSchema)
	for {
		b, err := c.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out, c.Stats()
		}
		if err := out.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexLookupMatchesScan pins the core equivalence: an IndexCursor
// delivers the same rows in the same order as a filtered scan, for every
// operator, on every column type, NaN rows included, and counts as touched
// exactly the blocks that hold a match.
func TestIndexLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seg := indexTestSegment(t, rng, 10000, 512)
	// Leave an unsealed tail in place (10000 % 512 != 0) plus extra rows.
	extra := NewBatch(seg.Schema())
	for i := 0; i < 37; i++ {
		_ = extra.AppendRow(int64(i-5), float64(i)/2, "zz", true)
	}
	if err := seg.Append(extra); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"id", "x", "s", "flag"} {
		if err := seg.BuildIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	preds := []Pred{
		{Col: "id", Op: OpEQ, Val: int64(7)},
		{Col: "id", Op: OpLT, Val: int64(-90)},
		{Col: "id", Op: OpGE, Val: int64(95)},
		{Col: "id", Op: OpLE, Val: float64(-99.5)},
		{Col: "x", Op: OpEQ, Val: float64(25)},
		{Col: "x", Op: OpGT, Val: float64(99)},
		{Col: "x", Op: OpLE, Val: float64(0.25)},
		{Col: "x", Op: OpGE, Val: int64(100)},
		{Col: "s", Op: OpEQ, Val: "c"},
		{Col: "s", Op: OpGT, Val: "f"},
		{Col: "flag", Op: OpEQ, Val: true},
		{Col: "id", Op: OpEQ, Val: int64(100000)}, // no matches
	}
	cols := []string{"id", "x", "s", "flag"}
	for _, p := range preds {
		p := p
		rows, handled := seg.IndexLookup(&p)
		if !handled {
			t.Fatalf("pred %+v not handled", p)
		}
		got, st := indexScan(t, seg, cols, &p)
		want := scanFiltered(t, seg, cols, &p)
		if !gatherBatchesEqual(got, want) {
			t.Fatalf("pred %+v: index path diverges (got %d rows, want %d)", p, got.Len(), want.Len())
		}
		touched := map[int]bool{}
		tail := 0
		for _, r := range rows {
			if bi := int(r) / 512; bi < seg.Blocks() {
				touched[bi] = true
			} else {
				tail++
			}
		}
		if st.RowsOut != want.Len() || st.BlocksScanned != len(touched) || st.BlocksSkipped != seg.Blocks()-len(touched) || st.TailRows != tail {
			t.Fatalf("pred %+v: stats %+v, want %d rows, %d blocks touched, %d tail rows", p, st, want.Len(), len(touched), tail)
		}
	}
	// NE is never index-served.
	if _, handled := seg.IndexLookup(&Pred{Col: "id", Op: OpNE, Val: int64(0)}); handled {
		t.Fatal("OpNE must fall back to scan")
	}
	if _, handled := seg.IndexLookup(&Pred{Col: "id", Op: OpEQ, Val: int64(0)}); !handled {
		t.Fatal("indexed EQ must be handled")
	}
}

// gatherBatchesEqual compares bitwise: Float64bits for floats, exact otherwise.
func gatherBatchesEqual(a, b *Batch) bool {
	if a.Len() != b.Len() || len(a.Cols) != len(b.Cols) {
		return false
	}
	for ci := range a.Cols {
		va, vb := a.Cols[ci], b.Cols[ci]
		if va.Type != vb.Type {
			return false
		}
		if va.Type == TypeFloat64 {
			for i := range va.Floats {
				if math.Float64bits(va.Floats[i]) != math.Float64bits(vb.Floats[i]) {
					return false
				}
			}
			continue
		}
		for i := 0; i < va.Len(); i++ {
			if !reflect.DeepEqual(va.Value(i), vb.Value(i)) {
				return false
			}
		}
	}
	return true
}

// TestIndexSurvivesAppendAndClone: appends maintain attached trees, and a
// clone keeps reading its frozen view while the original advances.
func TestIndexSurvivesAppendAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	seg := indexTestSegment(t, rng, 3000, 256)
	if err := seg.BuildIndex("id"); err != nil {
		t.Fatal(err)
	}
	snap := seg.Clone()
	snapRows, _ := snap.IndexLookup(&Pred{Col: "id", Op: OpEQ, Val: int64(5)})

	more := NewBatch(seg.Schema())
	for i := 0; i < 700; i++ {
		_ = more.AppendRow(int64(5), 1.0, "q", false)
	}
	if err := seg.Append(more); err != nil {
		t.Fatal(err)
	}
	p := Pred{Col: "id", Op: OpEQ, Val: int64(5)}
	rows, handled := seg.IndexLookup(&p)
	if !handled {
		t.Fatal("not handled after append")
	}
	if len(rows) != len(snapRows)+700 {
		t.Fatalf("appended rows missing from index: %d vs %d+700", len(rows), len(snapRows))
	}
	got, _ := indexScan(t, seg, []string{"id", "x"}, &p)
	if !gatherBatchesEqual(got, scanFiltered(t, seg, []string{"id", "x"}, &p)) {
		t.Fatal("index path diverges after append")
	}
	// The clone's view is frozen.
	afterSnap, _ := snap.IndexLookup(&p)
	if !reflect.DeepEqual(afterSnap, snapRows) {
		t.Fatal("clone's index changed under it")
	}
	// And the clone can append independently.
	if err := snap.Append(more); err != nil {
		t.Fatal(err)
	}
	cloneRows, _ := snap.IndexLookup(&p)
	if len(cloneRows) != len(snapRows)+700 {
		t.Fatalf("clone index not maintained: %d", len(cloneRows))
	}
}

// TestZonePredScansEquivalent: a later predicate of a conjunction skips the
// blocks its zone map rules out, so a scan under (pred, second) equals a scan
// under pred alone filtered by the second conjunct row-wise — and skips
// strictly more blocks on clustered data.
func TestZonePredScansEquivalent(t *testing.T) {
	schema := Schema{{Name: "a", Type: TypeInt64}, {Name: "b", Type: TypeInt64}}
	seg := NewSegment(schema, 128)
	b := NewBatch(schema)
	for i := 0; i < 4000; i++ {
		_ = b.AppendRow(int64(i), int64(i/1000)) // b clusters by block
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	pred := &Pred{Col: "a", Op: OpGE, Val: int64(0)} // matches everything
	second := Pred{Col: "b", Op: OpEQ, Val: int64(2)}
	var zst ScanStats
	var got []int64
	err := pushScan(context.Background(), seg, []string{"a", "b"}, []Pred{*pred, second}, &zst, func(batch *Batch) error {
		for i := 0; i < batch.Len(); i++ {
			if batch.Cols[1].Ints[i] == 2 {
				got = append(got, batch.Cols[0].Ints[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if zst.BlocksSkipped == 0 {
		t.Fatal("the second predicate skipped nothing on clustered data")
	}
	if len(got) != 1000 || got[0] != 2000 || got[999] != 2999 {
		t.Fatalf("conjunction scan rows: %d first %v", len(got), got[0])
	}
}

func TestColumnStats(t *testing.T) {
	schema := Schema{{Name: "a", Type: TypeInt64}, {Name: "s", Type: TypeString}, {Name: "f", Type: TypeFloat64}}
	seg := NewSegment(schema, 128)
	b := NewBatch(schema)
	for i := 0; i < 1000; i++ {
		// i/100 forms runs of 100, so the int column RLE-encodes and its
		// per-block NDV estimate comes from run counts.
		_ = b.AppendRow(int64(i/100), "only", float64(i))
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	st, err := seg.ColumnStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasRange || st.Min != 0 || st.Max != 9 || st.Rows != 1000 {
		t.Fatalf("a stats = %+v", st)
	}
	// RLE-ish low-cardinality int column: NDV estimate must be far below rows.
	if st.NDV <= 0 || st.NDV > 200 {
		t.Fatalf("a NDV = %d", st.NDV)
	}
	st, _ = seg.ColumnStats("s")
	if st.HasRange {
		t.Fatal("string column must not report a numeric range")
	}
	if st.NDV <= 0 || st.NDV > 10 {
		t.Fatalf("s NDV = %d (dictionary should collapse a constant column)", st.NDV)
	}
	// With an index attached the NDV becomes exact.
	if err := seg.BuildIndex("a"); err != nil {
		t.Fatal(err)
	}
	st, _ = seg.ColumnStats("a")
	if st.NDV != 10 {
		t.Fatalf("indexed NDV = %d want 10", st.NDV)
	}
	// NaN anywhere invalidates the range.
	nb := NewBatch(schema)
	_ = nb.AppendRow(int64(1), "x", math.NaN())
	_ = seg.Append(nb)
	st, _ = seg.ColumnStats("f")
	if st.HasRange {
		t.Fatal("NaN in tail must clear HasRange")
	}
}

// TestColumnStatsCachedAndConcurrent pins the stats memo: concurrent readers
// may fill it simultaneously (planners share published segment versions), and
// any mutation must drop it.
func TestColumnStatsCachedAndConcurrent(t *testing.T) {
	schema := Schema{{Name: "a", Type: TypeInt64}, {Name: "f", Type: TypeFloat64}}
	seg := NewSegment(schema, 64)
	b := NewBatch(schema)
	for i := 0; i < 500; i++ {
		_ = b.AppendRow(int64(i%20), float64(i))
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, err := seg.ColumnStats("a"); err != nil {
					t.Error(err)
					return
				}
				if _, err := seg.ColumnStats("f"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	before, _ := seg.ColumnStats("a")
	nb := NewBatch(schema)
	_ = nb.AppendRow(int64(99), float64(-1))
	if err := seg.Append(nb); err != nil {
		t.Fatal(err)
	}
	after, _ := seg.ColumnStats("a")
	if after.Rows != before.Rows+1 || after.Max != 99 {
		t.Fatalf("stale stats after append: before %+v after %+v", before, after)
	}
	fa, _ := seg.ColumnStats("f")
	if !fa.HasRange || fa.Min != -1 {
		t.Fatalf("float range not refreshed: %+v", fa)
	}
}
