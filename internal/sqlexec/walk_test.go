package sqlexec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/faults"
	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/telemetry"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
)

// segsDB is a Database over tables of several segments each.
type segsDB struct {
	fakeDB
	defs map[string]*catalog.TableDef
	segs map[string][]*colstore.Segment
	reg  *udf.Registry
}

func (d *segsDB) TableDef(name string) (*catalog.TableDef, error) {
	if def, ok := d.defs[name]; ok {
		return def, nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

func (d *segsDB) Segments(name string) ([]*colstore.Segment, error) {
	if segs, ok := d.segs[name]; ok {
		return segs, nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

func (d *segsDB) UDFs() *udf.Registry { return d.reg }

// add stores a table of rows dealt round-robin over nsegs segments of
// blockRows-row blocks: each segment seals all but its last tail rows,
// which stay unsealed, and segment empty (when in range) gets no row.
func (d *segsDB) add(t testing.TB, name string, schema colstore.Schema, rows [][]any, nsegs, blockRows, tail, empty int, index ...string) {
	t.Helper()
	if d.defs == nil {
		d.defs, d.segs = map[string]*catalog.TableDef{}, map[string][]*colstore.Segment{}
	}
	d.defs[name] = &catalog.TableDef{Name: name, Schema: schema}
	parts := make([][][]any, nsegs)
	for i, r := range rows {
		s := i % nsegs
		if s == empty && nsegs > 1 {
			s = (s + 1) % nsegs
		}
		parts[s] = append(parts[s], r)
	}
	appendRows := func(seg *colstore.Segment, rows [][]any) {
		b := colstore.NewBatch(schema)
		for _, r := range rows {
			if err := b.AppendRow(r...); err != nil {
				t.Fatal(err)
			}
		}
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, part := range parts {
		seg := colstore.NewSegment(schema, blockRows)
		cut := max(0, len(part)-tail)
		appendRows(seg, part[:cut])
		if err := seg.Seal(); err != nil {
			t.Fatal(err)
		}
		appendRows(seg, part[cut:])
		for _, c := range index {
			if err := seg.BuildIndex(c); err != nil {
				t.Fatal(err)
			}
		}
		d.segs[name] = append(d.segs[name], seg)
	}
}

var (
	streamFact = colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "k", Type: colstore.TypeInt64},
		{Name: "kf", Type: colstore.TypeFloat64},
		{Name: "par", Type: colstore.TypeInt64},
		{Name: "g", Type: colstore.TypeInt64},
		{Name: "s", Type: colstore.TypeString},
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "y", Type: colstore.TypeInt64},
	}
	streamDim = colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "kf", Type: colstore.TypeFloat64},
		{Name: "grp", Type: colstore.TypeInt64},
		{Name: "w", Type: colstore.TypeFloat64},
	}
	streamNames = colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "name", Type: colstore.TypeString},
	}
	// Join keys: duplicates, NaN (equal to every key), both zeros and
	// integers a FLOAT key meets widened.
	streamKeys = []float64{0, math.Copysign(0, -1), math.NaN(), 1, 2.5, 3, 7, -4}
	streamStrs = []string{"red", "", "blue", "a\x00b", "green"}
)

// streamValue draws a FLOAT no sum of which is exact: a normal deviate
// scaled over twelve decades, or now and then ±0, ±Inf or NaN.
func streamValue(rng *rand.Rand) float64 {
	switch rng.Intn(60) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
}

// newWalkDB builds f (facts), d (a dimension with duplicate and NaN keys)
// and e (names for d.grp) from seed, f dealt over nsegs segments.
func newWalkDB(t testing.TB, seed int64, factRows, nsegs, blockRows, tail int) *segsDB {
	rng := rand.New(rand.NewSource(seed))
	var f, d, e [][]any
	for i := 0; i < factRows; i++ {
		kf := streamKeys[rng.Intn(len(streamKeys))]
		if kf != kf && rng.Intn(8) > 0 { // NaN keys match every build row: keep them rare
			kf = 1
		}
		f = append(f, []any{int64(i), int64(rng.Intn(40)), kf, int64(i % 2), int64(rng.Intn(7)),
			streamStrs[rng.Intn(len(streamStrs))], streamValue(rng), int64(rng.Intn(1000) - 500)})
	}
	for i := 0; i < 60; i++ {
		d = append(d, []any{int64(rng.Intn(45)), streamKeys[rng.Intn(len(streamKeys))], int64(rng.Intn(5)), streamValue(rng)})
	}
	for i := 0; i < 4; i++ {
		e = append(e, []any{int64(i), streamStrs[i]})
	}
	db := &segsDB{reg: udf.NewRegistry()}
	db.add(t, "f", streamFact, f, nsegs, blockRows, tail, int(seed)%(nsegs+1), "id")
	db.add(t, "d", streamDim, d, 2, 16, 5, -1, "id")
	db.add(t, "e", streamNames, e, 1, 16, 0, -1)
	return db
}

// streamQueries exercise every stage of a streamed input: residuals that
// reject nothing, everything and every other row; pushed predicates with and
// without a residual; index leaves; INTEGER, FLOAT (NaN, ±0) and mixed join
// keys; a top join residual; a chain of two joins; projections with and
// without a sort; statements whose errors depend on the rows, and one whose
// error must not.
var streamQueries = []string{
	"SELECT g, count(*), sum(x), avg(x), min(x), max(x) FROM f WHERE y * 1 >= -1000 GROUP BY g",
	"SELECT g, count(*), sum(x) FROM f WHERE y * 1 > 10000 GROUP BY g",
	"SELECT count(*), sum(x), min(x) FROM f WHERE y * 1 > 10000",
	"SELECT s, count(*), sum(x), min(s), max(y) FROM f WHERE par * 1 = 0 GROUP BY s",
	"SELECT count(*), sum(x * 3), sum(x + y), avg(y) FROM f WHERE y < 250",
	"SELECT g, s, count(*), sum(x) FROM f WHERE y >= -200 AND par * 1 = 1 GROUP BY g, s",
	"SELECT kf, count(*), sum(x) FROM f WHERE id < 300 GROUP BY kf",
	"SELECT d.grp, count(*), sum(f.x), min(d.w), max(f.x) FROM f JOIN d ON f.k = d.id GROUP BY d.grp",
	"SELECT d.grp, count(*), sum(f.x), sum(d.w) FROM f JOIN d ON f.kf = d.kf GROUP BY d.grp",
	"SELECT d.grp, count(*), sum(f.x) FROM f JOIN d ON f.k = d.kf GROUP BY d.grp",
	"SELECT f.g, count(*), sum(f.x) FROM f JOIN d ON f.k = d.id WHERE f.x > d.w GROUP BY f.g",
	"SELECT count(*), sum(f.x) FROM f JOIN d ON f.k = d.id WHERE f.par * 1 = 0 AND d.grp * 1 < 3",
	"SELECT e.name, count(*), sum(f.x), max(d.w) FROM f JOIN d ON f.k = d.id JOIN e ON d.grp = e.id GROUP BY e.name",
	"SELECT count(*) FROM f JOIN d ON f.k = d.id WHERE f.id < 500",
	"SELECT id, x, s FROM f WHERE par * 1 = 0",
	"SELECT * FROM f WHERE y < 0",
	"SELECT x * 2, id FROM f",
	"SELECT id, x FROM f WHERE y > 100 ORDER BY x LIMIT 50",
	"SELECT f.id, d.grp, f.x FROM f JOIN d ON f.k = d.id WHERE f.y > 0",
	"SELECT * FROM f JOIN d ON f.kf = d.kf WHERE f.y > 400",
	"SELECT sum(s) FROM f WHERE par * 1 = 0",
	"SELECT count(*) FROM f WHERE s < 1",
	"SELECT count(*) FROM f JOIN d ON f.k = d.id WHERE f.s < d.grp",
	"SELECT count(*) FROM f WHERE id = -5 AND y + 1", // an index finding nothing under a residual that cannot run
}

// checkStreamed runs sql through the engine and through materializedRef,
// both under PROFILE, and requires the same error text or the same result to
// the bit with the same operators reporting the same row counts.
func checkStreamed(t *testing.T, db Database, sql, label string) {
	t.Helper()
	sel := selStmt(t, "PROFILE "+sql)
	got, gotErr := RunSelectCtx(context.Background(), db, sel)
	p, err := plan.Build(sel, db)
	if err != nil {
		t.Fatalf("%s: %s: plan: %v", label, sql, err)
	}
	prof := NewProfile("")
	want, wantErr := materializedRef(context.Background(), db, p, prof)
	if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: %s:\n  streamed:     %v\n  materialized: %v", label, sql, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	resultsIdentical(t, label+": "+sql, got, want)
	g, w := got.Profile.Ops(), prof.Ops()
	ops := func(ops []OpProfile) string {
		var sb strings.Builder
		for _, op := range ops {
			fmt.Fprintf(&sb, "%s=%d ", op.Op, op.Rows)
		}
		return sb.String()
	}
	if ops(g) != ops(w) {
		t.Fatalf("%s: %s: operators\n  streamed:     %s\n  materialized: %s", label, sql, ops(g), ops(w))
	}
}

// TestStreamedWalkerBitIdentical holds the pipelined walker to the
// materializing walk it replaced: for every statement shape, over tables of
// one to five segments (one of them empty), blocks small enough that a
// 4096-row chunk spans several cursor ranges, unsealed tails, and FLOAT
// values no sum of which is exact, the results match to the bit and PROFILE
// reports the same operators with the same row counts, at degrees 1 to 8.
func TestStreamedWalkerBitIdentical(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	for _, shape := range []struct {
		nsegs, blockRows, tail int
	}{
		{1, 97, 40},
		{3, 64, 0},
		{5, 50, 31},
		{2, colstore.DefaultBlockRows, 700},
	} {
		db := newWalkDB(t, int64(shape.nsegs*1000+shape.blockRows), 20_000, shape.nsegs, shape.blockRows, shape.tail)
		for _, deg := range []int{1, 2, 3, 4, 8} {
			parallel.SetDefaultDegree(deg)
			for _, sql := range streamQueries {
				checkStreamed(t, db, sql, fmt.Sprintf("%d segments of %d-row blocks, degree %d", shape.nsegs, shape.blockRows, deg))
			}
		}
	}
}

// FuzzStreamedAggregate: statements over fuzz-shaped tables — seed, size,
// segment count, block size and tail, query and degree all drawn by the
// fuzzer — agree between the pipelined walker and materializedRef, bitwise
// and operator for operator, or fail with the same error.
func FuzzStreamedAggregate(f *testing.F) {
	f.Add(int64(1), uint16(9000), uint8(3), uint8(40), uint8(0), uint8(1))
	f.Add(int64(2), uint16(5000), uint8(1), uint8(200), uint8(7), uint8(3))
	f.Add(int64(3), uint16(0), uint8(2), uint8(10), uint8(12), uint8(2))
	f.Add(int64(4), uint16(12000), uint8(5), uint8(90), uint8(8), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, nsegs, block, qSel, deg uint8) {
		defer parallel.SetDefaultDegree(0)
		n := int(rows) % 13_000
		segs := 1 + int(nsegs)%5
		br := 8 + int(block)
		db := newWalkDB(t, seed, n, segs, br, int(block)%br)
		parallel.SetDefaultDegree(1 + int(deg)%8)
		checkStreamed(t, db, streamQueries[int(qSel)%len(streamQueries)], fmt.Sprintf("%d rows over %d segments of %d-row blocks", n, segs, br))
	})
}

// TestScanTelemetryCountsEachRowOnce: whatever path scans a table over
// several segments — the run-aware fold, a streamed sequential scan, an index
// probe, a UDTF's block ranges — colstore_scan_rows_total rises by the rows
// it delivered, once. The run-aware feeder and the index gather used to flush
// the caller's running total, segment after segment.
func TestScanTelemetryCountsEachRowOnce(t *testing.T) {
	reg := udf.NewRegistry()
	if err := reg.Register("PartSum", func() udf.Transform { return sumTransform{} }); err != nil {
		t.Fatal(err)
	}
	db := newWalkDB(t, 5, 12_000, 4, 100, 30)
	db.reg = reg
	rows := telemetry.Default().Counter("colstore_scan_rows_total")
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		{"SELECT g, count(*), sum(x) FROM f GROUP BY g", 12_000},                   // run-aware
		{"SELECT g, count(*), sum(x) FROM f WHERE par * 1 = 0 GROUP BY g", 12_000}, // streamed
		{"SELECT x FROM f WHERE id < 50", 50},                                      // index
		{"SELECT PartSum(x) OVER (PARTITION BEST) FROM f", 12_000},                 // UDTF
	} {
		p, err := plan.Build(selStmt(t, tc.sql), db)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(tc.sql, "id < 50") && coreNode(p).Children[0].Op != plan.OpIndexScan {
			t.Fatalf("%s: not an index scan:\n%s", tc.sql, strings.Join(p.Text(nil), "\n"))
		}
		before := rows.Value()
		if _, err := RunSelectCtx(context.Background(), db, selStmt(t, tc.sql)); err != nil {
			t.Fatal(err)
		}
		if got := rows.Value() - before; got != tc.want {
			t.Fatalf("%s: colstore_scan_rows_total rose by %d, want %d", tc.sql, got, tc.want)
		}
	}
}

// TestIndexLeafFallsBackPerSegment: a plan made while every segment had the
// index runs after one of three segments lost it (mid-DDL or mid-recovery).
// That segment is scanned under the probe predicates, the others read
// through their index, and each statement returns to the bit what it returns
// once the index is gone everywhere and the planner picks a sequential scan.
func TestIndexLeafFallsBackPerSegment(t *testing.T) {
	leafOp := func(p *plan.Plan) string { return coreNode(p).Children[0].Op }
	for _, sql := range []string{
		"SELECT id, x, s FROM f WHERE id = 4321",
		"SELECT id, x, y FROM f WHERE id >= 1000 AND id < 1400",
		"SELECT g, count(*), sum(x), min(s) FROM f WHERE id < 3000 GROUP BY g",
	} {
		db := newWalkDB(t, 11, 20_000, 3, 64, 10) // seed 11: no empty segment
		p, err := plan.Build(selStmt(t, sql), db)
		if err != nil || leafOp(p) != plan.OpIndexScan {
			t.Fatalf("%s: not an index scan (%v)", sql, err)
		}
		segs := db.segs["f"]
		segs[1].DropIndex("id")
		prof := NewProfile("")
		got, err := execPlan(context.Background(), db, p, prof)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var scan OpProfile
		for _, op := range prof.Ops() {
			if op.Op == "scan" {
				scan = op
			}
		}
		if !strings.Contains(scan.Detail, "1 segments without index scanned") {
			t.Fatalf("%s: scan detail %q", sql, scan.Detail)
		}
		for _, seg := range segs {
			seg.DropIndex("id")
		}
		if p, err := plan.Build(selStmt(t, sql), db); err != nil || leafOp(p) != plan.OpSeqScan {
			t.Fatalf("%s: not a sequential scan without the index (%v)", sql, err)
		}
		want, err := RunSelectCtx(context.Background(), db, selStmt(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 {
			t.Fatalf("%s: no rows", sql)
		}
		resultsIdentical(t, sql, got, want)
	}
}

// TestIndexProbeSpans: a traced index scan opens one index.probe span per
// segment under the query, each carrying the rows its probe matched; a
// segment that cannot serve the probe reports 0.
func TestIndexProbeSpans(t *testing.T) {
	db := newWalkDB(t, 11, 20_000, 3, 64, 10)
	sql := "SELECT id, x, y FROM f WHERE id >= 1000 AND id < 1400"
	p, err := plan.Build(selStmt(t, sql), db)
	if err != nil || coreNode(p).Children[0].Op != plan.OpIndexScan {
		t.Fatalf("%s: not an index scan (%v)", sql, err)
	}
	segs := db.segs["f"]
	segs[1].DropIndex("id")
	log := telemetry.NewSpanLog(nil)
	root := log.StartSpan("query")
	res, err := execPlan(telemetry.ContextWithSpan(context.Background(), root), db, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	var rows []string
	for _, sp := range log.Export() {
		if sp.Name != "index.probe" {
			continue
		}
		if !sp.Ended || sp.Parent != root.ID() {
			t.Fatalf("index.probe span %+v: want ended, child of the query", sp)
		}
		for _, a := range sp.Attrs {
			if a.Key == "rows" {
				rows = append(rows, a.Value)
			}
		}
	}
	want := []string{"", "0", ""}
	for i, seg := range segs {
		if i == 1 {
			continue
		}
		ids, ok := seg.IndexLookupRange(&colstore.Pred{Col: "id", Op: colstore.OpGE, Val: int64(1000)}, &colstore.Pred{Col: "id", Op: colstore.OpLT, Val: int64(1400)})
		if !ok || len(ids) == 0 {
			t.Fatalf("segment %d: %d rows from its index (handled %v)", i, len(ids), ok)
		}
		want[i] = fmt.Sprint(len(ids))
	}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("index.probe rows %v, want %v (segment 1 has no index)", rows, want)
	}
	if res.Len() != 400 {
		t.Fatalf("%d rows, want 400", res.Len())
	}
}

// bytesPerQuery is what one execution of sql allocates, the least of three.
func bytesPerQuery(t *testing.T, db Database, sql string) uint64 {
	t.Helper()
	sel := selStmt(t, sql)
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunSelectCtx(context.Background(), db, sel)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 { // the first warms the pools
			least = min(least, after.TotalAlloc-before.TotalAlloc-resultBytes(res))
		}
	}
	return least
}

// resultBytes bounds what growing a result's columns allocated: a
// projection's output grows with its input by definition, and a column grown
// by doubling allocates less than twice its final capacity.
func resultBytes(res *Result) uint64 {
	var n uint64
	for _, c := range res.Batch.Cols {
		n += uint64(cap(c.Ints)*8 + cap(c.Floats)*8 + cap(c.Strs)*16 + cap(c.Bools))
	}
	return 2 * n
}

// TestSelectAllocsIndependentOfRows is the memory gate of the streamed
// walker: nothing between storage and the aggregate (or a projection's
// result) holds the input. Four times the rows may add only a per-block
// budget of bytes — the partial of each 4096-row chunk, as the whole-input
// fold had too — where the materializing walk allocated 66 MB for a
// WHERE-aggregate and 21.7 MB for a join-aggregate over 250k rows. At degree
// 2 a walk holds at most six range buffers, recycled range after range, and
// the join's build side is the same 10k rows. An index leaf streams its
// segment's selected rows block by block into one range buffer of the
// consumer's columns, where it used to gather every column it read before the
// walk: 16 bytes a selected row, beside the row positions IndexLookup grows
// to (about 20 bytes a row allocated), so an eighth of each 4096-row block
// stays inside the per-block budget. A two-sided range over one 256-row
// window is exact in storage, both bounds, so the same window costs one fixed
// budget of objects at any table size (boxing the rows of its blocks for a
// re-check of one bound made 3.1k objects at 100k rows and 6.1k at 400k).
func TestSelectAllocsIndependentOfRows(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	defer parallel.SetDefaultDegree(0)
	parallel.SetDefaultDegree(2)
	const smallRows, largeRows = 100_000, 400_000
	small, large := newEventsDB(t, smallRows, 10_000), newEventsDB(t, largeRows, 10_000)
	// An index leaf: an eighth of the table, under the planner's index
	// threshold, so the index range grows with the table.
	indexSQL := func(rows int) string {
		return fmt.Sprintf("SELECT grp, count(*) AS n, sum(x0) AS s FROM events WHERE id < %d GROUP BY grp ORDER BY grp", rows/8)
	}
	for _, db := range []*tablesDB{small, large} {
		if err := db.tables["events"].seg.BuildIndex("id"); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := plan.Build(selStmt(t, indexSQL(largeRows)), large); err != nil || coreNode(p).Children[0].Op != plan.OpIndexScan {
		t.Fatalf("%s: not an index scan (%v)", indexSQL(largeRows), err)
	}
	for _, tc := range []struct {
		name, sql, largeSQL string  // largeSQL: the statement at 400k rows, if not sql
		objects             float64 // when set, the objects either run may allocate
	}{
		{name: "where, aggregate", sql: groupByWhereSQL},
		{name: "join, aggregate", sql: hashJoinAggSQL},
		{name: "join, project", sql: "SELECT events.x0, d.grp FROM events JOIN dim d ON events.dim_id = d.id"},
		{name: "index range, aggregate", sql: indexSQL(smallRows), largeSQL: indexSQL(largeRows)},
		{name: "two-sided range window, aggregate", objects: 500,
			sql: "SELECT grp, count(*) AS n, sum(x0) AS s FROM events WHERE id >= 60000 AND id < 60256 GROUP BY grp ORDER BY grp"},
	} {
		a, b := bytesPerQuery(t, small, tc.sql), bytesPerQuery(t, large, cmp.Or(tc.largeSQL, tc.sql))
		t.Logf("%s: %d KB at 100k rows, %d KB at 400k (results aside)", tc.name, a>>10, b>>10)
		if tc.objects > 0 {
			a, b := queryAllocs(t, small, tc.sql), queryAllocs(t, large, tc.sql)
			t.Logf("%s: %.0f objects at 100k rows, %.0f at 400k", tc.name, a, b)
			if max(a, b) > tc.objects {
				t.Errorf("%s: %.0f objects at 100k rows, %.0f at 400k, want at most %.0f", tc.name, a, b, tc.objects)
			}
		}
		// How many range buffers a walk makes is the scheduler's to decide
		// (at most six here): two of 4 blocks x 4 columns x 8 bytes may differ.
		const perBlock, buffers = 16 << 10, 2 * rangeBlocks * colstore.DefaultBlockRows * 4 * 8
		extraBlocks := uint64(largeRows-smallRows) / colstore.DefaultBlockRows
		if limit := a + perBlock*extraBlocks + buffers; b > limit {
			t.Errorf("%s: %d KB at 400k rows, want at most %d KB (%d KB per extra block)", tc.name, b>>10, limit>>10, perBlock>>10)
		}
	}
}

// TestStreamedWalkCancels: a streamed aggregate, join or projection canceled
// before it starts, or while its ranges run, fails with the typed error.
func TestStreamedWalkCancels(t *testing.T) {
	db := newWalkDB(t, 7, 20_000, 3, 64, 10)
	for _, sql := range []string{streamQueries[0], streamQueries[7], streamQueries[14]} {
		for _, n := range []int{0, 5, 40} {
			_, err := RunSelectCtx(&errAfterCtx{Context: context.Background(), n: n}, db, selStmt(t, sql))
			if !errors.Is(err, verr.ErrCanceled) {
				t.Fatalf("%s canceled after %d checks: %v", sql, n, err)
			}
		}
	}
}

// TestChaosStreamedWalkFaults: every cursor range is a pool task and passes
// the parallel.task fault site — an injected failure fails the statement, and
// stragglers change no bit of the result. The index statement reads one
// index range from each of three segments; the PARTITION BEST statement's
// tasks are its twelve function instances, each pulling its own block range
// through the residual.
func TestChaosStreamedWalkFaults(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	parallel.SetDefaultDegree(4)
	db, full := newWalkDB(t, 8, 20_000, 3, 64, 10), newWalkDB(t, 11, 20_000, 3, 64, 10) // seed 11: no empty segment
	const indexSQL = "SELECT g, count(*), sum(x), min(s) FROM f WHERE id < 3000 GROUP BY g"
	if p, err := plan.Build(selStmt(t, indexSQL), full); err != nil || coreNode(p).Children[0].Op != plan.OpIndexScan {
		t.Fatalf("%s: not an index scan (%v)", indexSQL, err)
	}
	fn := newStreamDB(t, []int{3000, 3000, 3000}, 64, 4)
	if err := fn.reg.Register("PartSum", func() udf.Transform { return sumTransform{} }); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		db  Database
		sql string
	}{{db, streamQueries[0]}, {db, streamQueries[7]}, {db, streamQueries[14]}, {full, indexSQL},
		{fn, "SELECT PartSum(w) OVER (PARTITION BEST) FROM t WHERE x * 1 >= 100"}} {
		db, sql := tc.db, tc.sql
		want, err := RunSelectCtx(context.Background(), db, selStmt(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		in := faults.New(11)
		in.MustArm(faults.Rule{Site: parallel.SiteTask, Kind: faults.Delay, Prob: 0.3, Delay: 200 * time.Microsecond})
		faults.Install(in)
		got, err := RunSelectCtx(context.Background(), db, selStmt(t, sql))
		faults.Install(nil)
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, sql+" under delays", got, want)

		in = faults.New(12)
		in.MustArm(faults.Rule{Site: parallel.SiteTask, Kind: faults.Error, EveryN: 3})
		faults.Install(in)
		_, err = RunSelectCtx(context.Background(), db, selStmt(t, sql))
		faults.Install(nil)
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s with failing tasks: %v", sql, err)
		}
	}
}

// TestStreamedProfileChargesEachOperator: the scan, filter, join and
// aggregate of a streamed input run fused in one loop, and each is charged
// its own share of that loop's time, so the operators still sum to no more
// than the statement. The clock advances one tick per read.
func TestStreamedProfileChargesEachOperator(t *testing.T) {
	var now atomic.Int64
	telemetry.Default().SetClock(telemetry.ClockFunc(func() time.Duration { return time.Duration(now.Add(int64(time.Microsecond))) }))
	defer telemetry.Default().SetClock(nil)
	db := newWalkDB(t, 9, 20_000, 3, 64, 10)
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE "+streamQueries[11]))
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	seen := map[string]bool{}
	for _, op := range res.Profile.Ops() {
		if op.Elapsed <= 0 {
			t.Fatalf("%s charged %v", op.Op, op.Elapsed)
		}
		sum += op.Elapsed
		seen[op.Op] = true
	}
	if !seen["scan"] || !seen["filter"] || !seen["join"] || !seen["aggregate"] {
		t.Fatalf("operators %v", res.Profile.Ops())
	}
	if sum > res.Profile.Total {
		t.Fatalf("operators sum to %v, the statement took %v", sum, res.Profile.Total)
	}
}
