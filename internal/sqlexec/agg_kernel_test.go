package sqlexec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// newKernelDB builds t(s STRING, k INT, f FLOAT, w FLOAT, seq INT) with n
// rows in blockRows-row blocks; the last tail rows stay unsealed. sOf, kOf
// and fOf choose each row's key values (and so the encoding BestEncoding
// picks per block); w holds exact half-integers in runs of 3 and seq is
// sequential, so every sum is exact in float64 whatever the fold order.
func newKernelDB(t testing.TB, n, blockRows, tail int, sOf func(i int) string, kOf func(i int) int64, fOf func(i int) float64) *fakeDB {
	t.Helper()
	schema := colstore.Schema{
		{Name: "s", Type: colstore.TypeString},
		{Name: "k", Type: colstore.TypeInt64},
		{Name: "f", Type: colstore.TypeFloat64},
		{Name: "w", Type: colstore.TypeFloat64},
		{Name: "seq", Type: colstore.TypeInt64},
	}
	build := func(lo, hi int) *colstore.Batch {
		b := colstore.NewBatch(schema)
		for i := lo; i < hi; i++ {
			b.Cols[0].Strs = append(b.Cols[0].Strs, sOf(i))
			b.Cols[1].Ints = append(b.Cols[1].Ints, kOf(i))
			b.Cols[2].Floats = append(b.Cols[2].Floats, fOf(i))
			b.Cols[3].Floats = append(b.Cols[3].Floats, float64((i/3)%41-20)/2)
			b.Cols[4].Ints = append(b.Cols[4].Ints, int64(i))
		}
		return b
	}
	seg := colstore.NewSegment(schema, blockRows)
	if err := seg.Append(build(0, n-tail)); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	if tail > 0 {
		if err := seg.Append(build(n-tail, n)); err != nil {
			t.Fatal(err)
		}
	}
	return &fakeDB{def: &catalog.TableDef{Name: "t", Schema: schema}, seg: seg}
}

var kernelStrs = []string{"red", "green", "", "blue", "azul"}

// TestRunAwareMatchesChunkedAcrossChunks pins the two feeders of the
// aggregation kernel against each other over more than one 4096-row chunk:
// the run-aware fold (serial, block by block) and the chunked fold (per-chunk
// partials merged by parallel.Reduce) must agree to the bit and in group
// order. Values are exact and NaN-free, so MIN/MAX merge order cannot differ.
func TestRunAwareMatchesChunkedAcrossChunks(t *testing.T) {
	fPalette := []float64{1.5, math.Copysign(0, -1), 0, -7.5, 3, 2.5}
	db := newKernelDB(t, 3*aggChunkRows+917, 1000, 300,
		func(i int) string { return kernelStrs[(i/700)%len(kernelStrs)] },
		func(i int) int64 { return int64((i / 37) % 11) },
		func(i int) float64 { return fPalette[(i/53)%len(fPalette)] })
	for _, q := range []string{
		"SELECT count(*), sum(w), avg(w), min(w), max(w), min(s), max(k) FROM t",
		"SELECT k, count(*), sum(w), min(w), max(seq) FROM t GROUP BY k",
		"SELECT s, count(s), sum(seq), avg(w), min(f), max(f) FROM t GROUP BY s",
		"SELECT f, count(*), sum(k), max(s) FROM t GROUP BY f",
		"SELECT s, k, count(*), sum(w), min(seq) FROM t GROUP BY s, k",
		"SELECT k, f, s, count(*), sum(seq) FROM t GROUP BY k, f, s",
		"SELECT count(*) FROM t GROUP BY f, k",
	} {
		on, err := RunSelectCtx(context.Background(), db, selStmt(t, q))
		if err != nil {
			t.Fatalf("%s (run-aware): %v", q, err)
		}
		off, err := runDecodeFirst(db, selStmt(t, q))
		if err != nil {
			t.Fatalf("%s (chunked): %v", q, err)
		}
		if on.Len() == 0 {
			t.Fatalf("%s: no rows", q)
		}
		resultsIdentical(t, q, on, off)
	}
}

// TestGroupByTwoColumnMixedKeysPerEncoding groups by a (VARCHAR, INTEGER)
// and a (FLOAT, VARCHAR) key over each storage shape the kernel reads keys
// from — a dictionary key block, RLE key runs straddling block boundaries,
// and an unsealed tail — and holds both feeders to a row-by-row tally kept
// in first-appearance order.
func TestGroupByTwoColumnMixedKeysPerEncoding(t *testing.T) {
	fPalette := []float64{2.5, math.Copysign(0, -1), 0, -1.5}
	for _, tc := range []struct {
		name string
		tail int
		sOf  func(i int) string
	}{
		{"dict", 0, func(i int) string { return kernelStrs[i%3] }},
		{"rle-straddle", 0, func(i int) string { return kernelStrs[(i/37)%len(kernelStrs)] }},
		{"tail", 90, func(i int) string { return kernelStrs[(i/5)%4] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400
			kOf := func(i int) int64 { return int64((i / 19) % 3) }
			fOf := func(i int) float64 { return fPalette[(i/23)%len(fPalette)] }
			db := newKernelDB(t, n, 64, tc.tail, tc.sOf, kOf, fOf)

			type tally struct {
				key   string
				count int64
				sum   float64
			}
			tallies := func(keyOf func(i int) string) []*tally {
				var order []*tally
				seen := map[string]*tally{}
				for i := 0; i < n; i++ {
					key := keyOf(i)
					g := seen[key]
					if g == nil {
						g = &tally{key: key}
						seen[key] = g
						order = append(order, g)
					}
					g.count++
					g.sum += float64(i)
				}
				return order
			}
			check := func(q string, want []*tally, keyOfRow func(row []any) string) {
				t.Helper()
				on, err := RunSelectCtx(context.Background(), db, selStmt(t, q))
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				off, err := runDecodeFirst(db, selStmt(t, q))
				if err != nil {
					t.Fatalf("%s (chunked): %v", q, err)
				}
				resultsIdentical(t, q, on, off)
				rows := on.Rows()
				if len(rows) != len(want) {
					t.Fatalf("%s: %d groups, want %d", q, len(rows), len(want))
				}
				for gi, row := range rows {
					w := want[gi]
					if keyOfRow(row) != w.key || row[2] != w.count || row[3] != w.sum {
						t.Fatalf("%s: group %d = %v, want key %q count %d sum %v", q, gi, row, w.key, w.count, w.sum)
					}
				}
			}
			check("SELECT s, k, count(*), sum(seq) FROM t GROUP BY s, k",
				tallies(func(i int) string { return fmt.Sprintf("%q/%d", tc.sOf(i), kOf(i)) }),
				func(row []any) string { return fmt.Sprintf("%q/%d", row[0], row[1]) })
			check("SELECT f, s, count(*), sum(seq) FROM t GROUP BY f, s",
				tallies(func(i int) string { return fmt.Sprintf("%x/%q", math.Float64bits(fOf(i)), tc.sOf(i)) }),
				func(row []any) string { return fmt.Sprintf("%x/%q", math.Float64bits(row[0].(float64)), row[1]) })
		})
	}
}

// TestGroupKeysWithSeparatorBytesStayDistinct is the regression test for the
// rendered group key: parts used to be joined with a NUL, so ("a\x00","b")
// and ("a","\x00b") were one group. Key identity must be injective in-node
// (both feeders) and across the partial batch → merge path the cluster router
// uses.
func TestGroupKeysWithSeparatorBytesStayDistinct(t *testing.T) {
	schema := colstore.Schema{
		{Name: "p", Type: colstore.TypeString},
		{Name: "q", Type: colstore.TypeString},
	}
	newSeg := func(ps, qs []string) *colstore.Segment {
		seg := colstore.NewSegment(schema, 16)
		b := &colstore.Batch{Schema: schema, Cols: []*colstore.Vector{colstore.StringVector(ps), colstore.StringVector(qs)}}
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
		return seg
	}
	def := &catalog.TableDef{Name: "t", Schema: schema}
	const q = "SELECT p, q, count(*) FROM t GROUP BY p, q"
	check := func(label string, res *Result) {
		t.Helper()
		rows := res.Rows()
		if len(rows) != 2 {
			t.Fatalf("%s: %d groups %v, want 2", label, len(rows), rows)
		}
		if rows[0][0] != "a\x00" || rows[0][1] != "b" || rows[0][2] != int64(1) ||
			rows[1][0] != "a" || rows[1][1] != "\x00b" || rows[1][2] != int64(1) {
			t.Fatalf("%s: groups %q", label, rows)
		}
	}

	db := &fakeDB{def: def, seg: newSeg([]string{"a\x00", "a"}, []string{"b", "\x00b"})}
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, q))
	if err != nil {
		t.Fatal(err)
	}
	check("run-aware", res)
	if res, err = runDecodeFirst(db, selStmt(t, q)); err != nil {
		t.Fatal(err)
	}
	check("chunked", res)

	// One colliding row per shard: the merge matches the typed key columns.
	var parts []*colstore.Batch
	for _, shard := range []*fakeDB{
		{def: def, seg: newSeg([]string{"a\x00"}, []string{"b"})},
		{def: def, seg: newSeg([]string{"a"}, []string{"\x00b"})},
	} {
		part, err := RunPartialAggregate(context.Background(), shard, selStmt(t, q))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	if res, err = MergeAggPartials(context.Background(), selStmt(t, q), parts); err != nil {
		t.Fatal(err)
	}
	check("partial → merge", res)
}

// TestRunAwareProfileBooksFoldUnderAggregate: on a sealed table the run-aware
// path folds each block as it reads it, and PROFILE must book that time under
// the aggregate operator. On a clock that advances one tick per read the
// fold of each block costs exactly one tick (two reads per block).
func TestRunAwareProfileBooksFoldUnderAggregate(t *testing.T) {
	const tick = time.Millisecond
	var now time.Duration
	telemetry.Default().SetClock(telemetry.ClockFunc(func() time.Duration { now += tick; return now }))
	defer telemetry.Default().SetClock(nil)

	db := newFakeDB(t, 1000) // 10 sealed 100-row blocks
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE SELECT y, count(*), sum(x) FROM t GROUP BY y"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]OpProfile{}
	for _, op := range res.Profile.Ops() {
		got[op.Op] = op
	}
	if got["scan"].Blocks != 10 || !strings.Contains(got["aggregate"].Detail, "run-aware") {
		t.Fatalf("not the run-aware path over 10 blocks: %+v", got)
	}
	if got["aggregate"].Elapsed < 10*tick {
		t.Fatalf("aggregate booked %v, want at least the 10 block folds (%v)", got["aggregate"].Elapsed, 10*tick)
	}
	if sum := got["scan"].Elapsed + got["aggregate"].Elapsed; got["scan"].Elapsed <= 0 || sum > res.Profile.Total {
		t.Fatalf("scan %v + aggregate %v exceed the query's %v", got["scan"].Elapsed, got["aggregate"].Elapsed, res.Profile.Total)
	}
}

// errAfterCtx reports cancellation after its first n Err calls, from
// whichever goroutines make them.
type errAfterCtx struct {
	context.Context
	n     int
	calls atomic.Int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > int64(c.n) {
		return context.Canceled
	}
	return nil
}

// TestHashJoinCancelsInsideNaNCrossProduct: a NaN probe key matches every
// build row, so one probe batch can emit batch x build rows; the probe must
// notice cancellation inside that loop, not only between probe batches.
func TestHashJoinCancelsInsideNaNCrossProduct(t *testing.T) {
	left := &colstore.Batch{
		Schema: colstore.Schema{{Name: "l.k", Type: colstore.TypeFloat64}},
		Cols:   []*colstore.Vector{colstore.FloatVector([]float64{math.NaN()})},
	}
	build := make([]float64, 4*aggChunkRows)
	right := &colstore.Batch{
		Schema: colstore.Schema{{Name: "r.k", Type: colstore.TypeFloat64}},
		Cols:   []*colstore.Vector{colstore.FloatVector(build)},
	}
	node := &plan.Node{LeftKey: "l.k", RightKey: "r.k"}
	j, err := newJoinTable(node, left.Schema, right, map[string]bool{"r.k": true})
	if err != nil {
		t.Fatal(err)
	}
	probe := func(ctx context.Context) (int, error) {
		return j.probe(ctx, left, nil, colstore.NewBatch(j.out), &rangeBuf{})
	}
	if n, err := probe(context.Background()); err != nil || n != len(build) {
		t.Fatalf("uncancelled join: %d rows, err %v", n, err)
	}
	// The first check precedes the probe batch; the next ones can only come
	// from inside the single probe row's cross product.
	if _, err := probe(&errAfterCtx{Context: context.Background(), n: 2}); !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("join cancelled inside the cross product returned %v", err)
	}
}

// tablesDB is a multi-table, single-node Database for join tests.
type tablesDB struct {
	fakeDB
	tables map[string]*fakeDB
}

func (d *tablesDB) TableDef(name string) (*catalog.TableDef, error) {
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return t.def, nil
}

func (d *tablesDB) Segments(name string) ([]*colstore.Segment, error) {
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return []*colstore.Segment{t.seg}, nil
}

// newEventsDB builds the shape of the benchmark's serving tables, sealed in
// default-size blocks: events(id, dim_id, grp, region, x0, x1) with 64 grp
// values in no order, 8 region values alternating (dictionary blocks) and
// dyadic floats, and dim(id, grp) with dimRows rows.
func newEventsDB(t testing.TB, n, dimRows int) *tablesDB {
	t.Helper()
	regions := []string{"amer", "apac", "emea", "latam", "mena", "nordic", "oceania", "ssa"}
	events := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "dim_id", Type: colstore.TypeInt64},
		{Name: "grp", Type: colstore.TypeInt64},
		{Name: "region", Type: colstore.TypeString},
		{Name: "x0", Type: colstore.TypeFloat64},
		{Name: "x1", Type: colstore.TypeFloat64},
	}
	eb := colstore.NewBatchCap(events, n)
	for i := 0; i < n; i++ {
		h := uint64(i) * 0x9E3779B97F4A7C15
		eb.Cols[0].Ints = append(eb.Cols[0].Ints, int64(i))
		eb.Cols[1].Ints = append(eb.Cols[1].Ints, int64(h>>20)%int64(dimRows))
		eb.Cols[2].Ints = append(eb.Cols[2].Ints, int64(h>>58))
		eb.Cols[3].Strs = append(eb.Cols[3].Strs, regions[(h>>40)%8])
		eb.Cols[4].Floats = append(eb.Cols[4].Floats, float64(int64(h>>30)%4096-2048)/1024)
		eb.Cols[5].Floats = append(eb.Cols[5].Floats, float64(int64(h>>10)%4096-2048)/1024)
	}
	dim := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "grp", Type: colstore.TypeInt64},
	}
	db := colstore.NewBatchCap(dim, dimRows)
	for i := 0; i < dimRows; i++ {
		db.Cols[0].Ints = append(db.Cols[0].Ints, int64(i))
		db.Cols[1].Ints = append(db.Cols[1].Ints, int64(i%50))
	}
	seal := func(name string, schema colstore.Schema, b *colstore.Batch) *fakeDB {
		seg := colstore.NewSegment(schema, 0)
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := seg.Seal(); err != nil {
			t.Fatal(err)
		}
		return &fakeDB{def: &catalog.TableDef{Name: name, Schema: schema}, seg: seg}
	}
	return &tablesDB{tables: map[string]*fakeDB{
		"events": seal("events", events, eb),
		"dim":    seal("dim", dim, db),
	}}
}

const (
	groupByIntSQL   = "SELECT grp, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events GROUP BY grp ORDER BY grp"
	groupByDictSQL  = "SELECT region, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events GROUP BY region ORDER BY region"
	groupByWhereSQL = "SELECT grp, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events WHERE id < 1000000 GROUP BY grp ORDER BY grp"
	// A column-vs-column WHERE storage cannot take: the residual's compare.
	groupByResidualSQL = "SELECT grp, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events WHERE x0 < x1 GROUP BY grp ORDER BY grp"
	hashJoinAggSQL     = "SELECT d.grp, count(*) AS n, sum(events.x0) AS s FROM events JOIN dim d ON events.dim_id = d.id GROUP BY d.grp ORDER BY d.grp"
)

func queryAllocs(t *testing.T, db Database, sql string) float64 {
	t.Helper()
	sel := selStmt(t, sql)
	return testing.AllocsPerRun(3, func() {
		if _, err := RunSelectCtx(context.Background(), db, sel); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAggregateAllocsIndependentOfRows is the allocation gate of the typed
// kernel: a GROUP BY allocates per block (decode buffers, the scan's batches,
// one partial per chunk) and per group, never per row — the boxed kernel
// paid three per row. Four times the rows may add only the extra blocks'
// budget.
func TestAggregateAllocsIndependentOfRows(t *testing.T) {
	const smallRows, largeRows = 50_000, 200_000
	small, large := newEventsDB(t, smallRows, 1000), newEventsDB(t, largeRows, 1000)
	for _, tc := range []struct {
		name, sql string
		perBlock  float64
	}{
		{"int key", groupByIntSQL, 4},
		{"dict key", groupByDictSQL, 16}, // a dictionary block allocates its entries
		{"where, chunked", groupByWhereSQL, 64},
	} {
		a, b := queryAllocs(t, small, tc.sql), queryAllocs(t, large, tc.sql)
		t.Logf("%s: %.0f allocs at 50k rows, %.0f at 200k", tc.name, a, b)
		if a > 1000 {
			t.Errorf("%s: %.0f allocs at 50k rows", tc.name, a)
		}
		extraBlocks := float64(largeRows-smallRows) / colstore.DefaultBlockRows
		if limit := a + tc.perBlock*extraBlocks; b > limit {
			t.Errorf("%s: %.0f allocs at 200k rows, want at most %.0f (%.0f per extra block)", tc.name, b, limit, tc.perBlock)
		}
	}
}

// TestHashJoinAllocsBounded: the typed build table and the probe allocate a
// fixed number of arrays, the aggregate above them per chunk — none per row.
func TestHashJoinAllocsBounded(t *testing.T) {
	db := newEventsDB(t, 200_000, 10_000)
	allocs := queryAllocs(t, db, hashJoinAggSQL)
	t.Logf("join + aggregate: %.0f allocs at 200k probe rows, 10k build rows", allocs)
	if allocs > 200_000/50 {
		t.Fatalf("%.0f allocs for 200k probe rows scale with rows", allocs)
	}
}

func benchQuery(b *testing.B, sql string) {
	db := newEventsDB(b, 250_000, 10_000)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSelectCtx(context.Background(), db, stmt.(*sqlparse.Select)); err != nil {
			b.Fatal(err)
		}
	}
}

// Local iteration only; benchmark/ is what a claim is measured with.
func BenchmarkGroupByInt(b *testing.B)           { benchQuery(b, groupByIntSQL) }
func BenchmarkGroupByDict(b *testing.B)          { benchQuery(b, groupByDictSQL) }
func BenchmarkGroupByWhere(b *testing.B)         { benchQuery(b, groupByWhereSQL) }
func BenchmarkGroupByWhereResidual(b *testing.B) { benchQuery(b, groupByResidualSQL) }
func BenchmarkHashJoinAgg(b *testing.B)          { benchQuery(b, hashJoinAggSQL) }
