package colstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"verticadr/internal/faults"
	"verticadr/internal/parallel"
	"verticadr/internal/verr"
)

// randomSegment builds a segment with all four column types, many small
// sealed blocks, and an unsealed tail.
func randomSegment(t testing.TB, seed int64, rows, blockRows int) *Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := Schema{
		{Name: "id", Type: TypeInt64},
		{Name: "v", Type: TypeFloat64},
		{Name: "tag", Type: TypeString},
		{Name: "ok", Type: TypeBool},
	}
	seg := NewSegment(schema, blockRows)
	batch := NewBatch(schema)
	for i := 0; i < rows; i++ {
		err := batch.AppendRow(
			int64(rng.Intn(1000)),
			float64(rng.Intn(500)),
			fmt.Sprintf("t%d", rng.Intn(23)),
			rng.Intn(2) == 0,
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(batch); err != nil {
		t.Fatal(err)
	}
	// Leave a tail: do not Seal.
	return seg
}

// parScan is a scan the way the executor runs one in parallel: the
// segment's cursor ranges (one per two blocks) drained as tasks on a pool of
// the given degree, each range's rows held until every range before it was
// delivered, then handed to fn in range order — checking for cancellation
// before each delivery. Stats sum the cursors'.
func parScan(ctx context.Context, seg *Segment, cols []string, pred *Pred, deg int, st *ScanStats, fn func(*Batch) error) error {
	curs, err := seg.ScanCursors(cols, predList(pred), max(1, seg.Blocks()/2))
	if err != nil {
		return err
	}
	outs := make([]*Batch, len(curs))
	var mu sync.Mutex
	next := 0
	return parallel.NewPool(deg).Window(len(curs), 2*deg, func(i int) error {
		c := curs[i]
		defer c.Close()
		out := NewBatch(c.plan.outSchema)
		for {
			b, err := c.Next(ctx)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if err := out.AppendBatch(b); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if st != nil {
			st.Add(c.Stats())
		}
		for outs[i] = out; next < len(outs) && outs[next] != nil; next++ {
			if err := verr.Canceled(ctx.Err()); err != nil {
				return err
			}
			if outs[next].Len() > 0 {
				if err := fn(outs[next]); err != nil {
					return err
				}
			}
			outs[next] = nil
		}
		return nil
	})
}

// collectScan materializes a scan into one batch plus its stats: the serial
// scan at degree 0, parScan otherwise.
func collectScan(t testing.TB, seg *Segment, cols []string, pred *Pred, deg int) (*Batch, ScanStats) {
	t.Helper()
	var st ScanStats
	var out *Batch
	consume := func(b *Batch) error {
		if out == nil {
			out = NewBatch(b.Schema)
		}
		return out.AppendBatch(b)
	}
	var err error
	if deg == 0 {
		err = seg.ScanWithStats(cols, pred, &st, consume)
	} else {
		err = parScan(context.Background(), seg, cols, pred, deg, &st, consume)
	}
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		schema := seg.Schema()
		if cols != nil {
			schema, err = schema.Project(cols)
			if err != nil {
				t.Fatal(err)
			}
		}
		out = NewBatch(schema)
	}
	return out, st
}

// batchesEqual compares schema and every value bitwise (floats by bits).
func batchesEqual(a, b *Batch) error {
	if !a.Schema.Equal(b.Schema) {
		return fmt.Errorf("schema mismatch: %v vs %v", a.Schema, b.Schema)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("row count %d vs %d", a.Len(), b.Len())
	}
	for c := range a.Cols {
		av, bv := a.Cols[c], b.Cols[c]
		for i := 0; i < av.Len(); i++ {
			switch av.Type {
			case TypeFloat64:
				if math.Float64bits(av.Floats[i]) != math.Float64bits(bv.Floats[i]) {
					return fmt.Errorf("col %d row %d: %v vs %v", c, i, av.Floats[i], bv.Floats[i])
				}
			default:
				if av.Value(i) != bv.Value(i) {
					return fmt.Errorf("col %d row %d: %v vs %v", c, i, av.Value(i), bv.Value(i))
				}
			}
		}
	}
	return nil
}

func TestParScanMatchesSerial(t *testing.T) {
	seg := randomSegment(t, 1, 5000, 64)
	preds := []*Pred{
		nil,
		{Col: "id", Op: OpLT, Val: int64(200)},
		{Col: "v", Op: OpGE, Val: float64(250)},
		{Col: "v", Op: OpEQ, Val: int64(100)}, // cross-type numeric
		{Col: "tag", Op: OpEQ, Val: "t3"},
		{Col: "ok", Op: OpEQ, Val: true},
		{Col: "id", Op: OpGT, Val: int64(5000)}, // all blocks zone-map skipped
	}
	projections := [][]string{nil, {"id"}, {"v", "tag"}, {"tag", "id", "ok"}}
	for pi, pred := range preds {
		for ci, cols := range projections {
			want, wantStats := collectScan(t, seg, cols, pred, 0)
			for _, deg := range []int{1, 2, 4, 8} {
				got, gotStats := collectScan(t, seg, cols, pred, deg)
				if err := batchesEqual(want, got); err != nil {
					t.Fatalf("pred %d cols %d degree %d: %v", pi, ci, deg, err)
				}
				if gotStats != wantStats {
					t.Fatalf("pred %d cols %d degree %d: stats %+v vs %+v", pi, ci, deg, gotStats, wantStats)
				}
			}
		}
	}
}

func TestParScanSealedOnly(t *testing.T) {
	seg := randomSegment(t, 2, 4096, 64) // rows divide evenly: no tail
	if seg.tail.Len() != 0 {
		t.Fatalf("expected empty tail, got %d rows", seg.tail.Len())
	}
	want, _ := collectScan(t, seg, nil, nil, 0)
	got, _ := collectScan(t, seg, nil, nil, 4)
	if err := batchesEqual(want, got); err != nil {
		t.Fatal(err)
	}
}

func TestParScanOrderedDelivery(t *testing.T) {
	// Sequential ids: with no predicate the delivered stream must be exactly
	// 0..n-1 in order, proving block order survives concurrent ranges.
	schema := Schema{{Name: "id", Type: TypeInt64}}
	seg := NewSegment(schema, 32)
	batch := NewBatch(schema)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := batch.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(batch); err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	err := parScan(context.Background(), seg, nil, nil, 8, nil, func(b *Batch) error {
		for _, id := range b.Cols[0].Ints {
			if id != next {
				return fmt.Errorf("got id %d, want %d", id, next)
			}
			next++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("delivered %d rows, want %d", next, n)
	}
}

func TestParScanConsumerError(t *testing.T) {
	seg := randomSegment(t, 3, 2000, 32)
	halt := errors.New("halt")
	calls := 0
	err := parScan(context.Background(), seg, nil, nil, 4, nil, func(b *Batch) error {
		calls++
		if calls == 3 {
			return halt
		}
		return nil
	})
	if !errors.Is(err, halt) {
		t.Fatalf("err %v, want halt", err)
	}
}

func TestParScanUnknownPredColumn(t *testing.T) {
	seg := randomSegment(t, 4, 100, 32)
	err := parScan(context.Background(), seg, nil, &Pred{Col: "nope", Op: OpEQ, Val: int64(1)}, 4, nil, func(*Batch) error { return nil })
	if err == nil {
		t.Fatal("expected error for unknown predicate column")
	}
}

// TestChaosParScanDelayInjection stalls random cursor-range tasks via the
// fault injector and asserts the parallel scan still produces byte-identical
// results and stats: stragglers must not reorder or drop blocks.
func TestChaosParScanDelayInjection(t *testing.T) {
	seg := randomSegment(t, 5, 4000, 64)
	pred := &Pred{Col: "v", Op: OpLT, Val: float64(300)}
	want, wantStats := collectScan(t, seg, []string{"id", "v", "tag"}, pred, 0)

	in := faults.New(42)
	in.MustArm(faults.Rule{Site: parallel.SiteTask, Kind: faults.Delay, Prob: 0.25, Delay: 300 * time.Microsecond})
	faults.Install(in)
	defer faults.Install(nil)

	for _, deg := range []int{2, 4, 8} {
		got, gotStats := collectScan(t, seg, []string{"id", "v", "tag"}, pred, deg)
		if err := batchesEqual(want, got); err != nil {
			t.Fatalf("degree %d under delay injection: %v", deg, err)
		}
		if gotStats != wantStats {
			t.Fatalf("degree %d under delay injection: stats %+v vs %+v", deg, gotStats, wantStats)
		}
	}
	var fired bool
	for _, s := range in.Stats() {
		if s.Site == parallel.SiteTask && s.Fires > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("chaos profile never fired — test exercised nothing")
	}
}

// TestChaosParScanErrorInjection arms an error rule and checks the scan
// surfaces the injected failure instead of returning partial results.
func TestChaosParScanErrorInjection(t *testing.T) {
	seg := randomSegment(t, 6, 4000, 64)
	in := faults.New(7)
	in.MustArm(faults.Rule{Site: parallel.SiteTask, Kind: faults.Error, EveryN: 10})
	faults.Install(in)
	defer faults.Install(nil)
	err := parScan(context.Background(), seg, nil, nil, 4, nil, func(*Batch) error { return nil })
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err %v, want injected", err)
	}
}
