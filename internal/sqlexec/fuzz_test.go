package sqlexec

import (
	"context"
	"math"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
)

// fuzzAggQueries are the aggregate shapes the run-aware path accelerates,
// plus WHERE variants that route through the compressed block matcher. Every
// numeric literal the data can produce is exact in float64 (half-integers,
// small ints, ±Inf, NaN), so run-folded and row-iterated accumulation must
// agree to the bit — any divergence is a real bug, not rounding.
var fuzzAggQueries = []string{
	"SELECT count(*), sum(w), avg(w), min(w), max(w) FROM t",
	"SELECT g, count(*), sum(w), min(w), max(w) FROM t GROUP BY g",
	"SELECT g, min(g), max(g), count(g) FROM t GROUP BY g",
	"SELECT count(*), sum(k), min(k), max(k), avg(k) FROM t",
	"SELECT k, count(*), sum(w) FROM t GROUP BY k",
	"SELECT g, k, count(*), min(w) FROM t GROUP BY g, k",
	"SELECT sum(w), count(*) FROM t WHERE g = 'red'",
	"SELECT min(w), max(w), count(*) FROM t WHERE k >= 0",
}

var fuzzStrPalette = []string{"red", "blue", "", "green"}

// Exact-in-float64 palette, including the values where folded accumulation
// could plausibly diverge from row order: NaN (must propagate), ±0.0 (sign
// rules), ±Inf (overflow and Inf-Inf), and magnitudes whose sums stay exact.
var fuzzFloatPalette = []float64{
	0.0, math.Copysign(0, -1), 1.5, -2.5, 7, -20,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
}

// fuzzAggDB decodes fuzz bytes into a run-structured table: each input byte
// contributes a run of 1-8 identical rows drawn from the palettes, so the
// fuzzer controls run boundaries, block straddling, and palette mixes.
// Rows are capped at one aggregation chunk (4096) so chunked and run-folded
// MIN/MAX see the same NaN merge order.
func fuzzAggDB(t testing.TB, brSel uint8, seal bool, data []byte) *fakeDB {
	t.Helper()
	schema := colstore.Schema{
		{Name: "g", Type: colstore.TypeString},
		{Name: "w", Type: colstore.TypeFloat64},
		{Name: "k", Type: colstore.TypeInt64},
	}
	seg := colstore.NewSegment(schema, 1+int(brSel)%96)
	b := colstore.NewBatch(schema)
	rows := 0
	for _, by := range data {
		if rows >= 4096 {
			break
		}
		run := int(by&7) + 1
		sel := int(by >> 3)
		g := fuzzStrPalette[sel%len(fuzzStrPalette)]
		w := fuzzFloatPalette[(sel/2)%len(fuzzFloatPalette)]
		k := int64(sel%5) - 2
		for j := 0; j < run && rows < 4096; j++ {
			for c, v := range []any{g, w, k} {
				if err := b.Cols[c].AppendValue(v); err != nil {
					t.Fatal(err)
				}
			}
			rows++
		}
	}
	if rows > 0 {
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
		if seal {
			if err := seg.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &fakeDB{def: &catalog.TableDef{Name: "t", Schema: schema}, seg: seg}
}

// FuzzCompressedAggregateEquivalence pins the run-aware aggregate path (and
// the compressed WHERE matcher feeding row aggregation) bit-identical to the
// decode-first row path: the same query over the same fuzz-shaped table must
// produce the same result through the engine's plan and through
// runDecodeFirst, or fail on both sides.
func FuzzCompressedAggregateEquivalence(f *testing.F) {
	// One seed per query shape over run-heavy data, plus NaN/Inf-dense and
	// empty-table seeds.
	runs := []byte{0x07, 0x07, 0x27, 0x47, 0x87, 0xc7, 0x17, 0x37, 0x57, 0x97}
	for q := range fuzzAggQueries {
		f.Add(uint8(q), uint8(32), true, runs)
	}
	f.Add(uint8(0), uint8(16), true, []byte{0x67, 0x67, 0x77, 0x87, 0x8f}) // NaN/Inf runs
	f.Add(uint8(1), uint8(0), false, []byte{})                             // empty table
	f.Add(uint8(4), uint8(255), false, []byte{0x01, 0xff, 0x3c, 0x99})     // unsealed tail only

	f.Fuzz(func(t *testing.T, qSel, brSel uint8, seal bool, data []byte) {
		db := fuzzAggDB(t, brSel, seal, data)
		sel := selStmt(t, fuzzAggQueries[int(qSel)%len(fuzzAggQueries)])

		onRes, onErr := RunSelectCtx(context.Background(), db, sel)
		offRes, offErr := runDecodeFirst(db, sel)
		if (onErr != nil) != (offErr != nil) {
			t.Fatalf("error disagreement\n  compressed: %v\n  decoded:    %v", onErr, offErr)
		}
		if onErr != nil {
			if onErr.Error() != offErr.Error() {
				t.Fatalf("error text diverges\n  compressed: %v\n  decoded:    %v", onErr, offErr)
			}
			return
		}
		resultsIdentical(t, "compressed vs decoded", onRes, offRes)
	})
}
