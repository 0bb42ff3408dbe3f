package sqlexec

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
)

// newCompressibleDB builds t(g STRING, r INT, v FLOAT, seq INT) in sealed
// 100-row blocks: g alternates two values (DICT), r holds runs of 50 (RLE),
// v holds runs of 25 from a palette with NaN and -0.0 (RLE), seq is
// sequential (DELTA — never compressed-evaluable).
func newCompressibleDB(t *testing.T, n int) *fakeDB {
	t.Helper()
	schema := colstore.Schema{
		{Name: "g", Type: colstore.TypeString},
		{Name: "r", Type: colstore.TypeInt64},
		{Name: "v", Type: colstore.TypeFloat64},
		{Name: "seq", Type: colstore.TypeInt64},
	}
	seg := colstore.NewSegment(schema, 100)
	b := colstore.NewBatch(schema)
	vPalette := []float64{1.5, math.NaN(), math.Copysign(0, -1), 2.5}
	for i := 0; i < n; i++ {
		vals := []any{
			[]string{"red", "blue"}[i%2],
			int64(i / 50),
			vPalette[(i/25)%len(vPalette)],
			int64(i),
		}
		for c := range vals {
			if err := b.Cols[c].AppendValue(vals[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	return &fakeDB{def: &catalog.TableDef{Name: "t", Schema: schema}, seg: seg}
}

// resultsIdentical compares two results to float bits.
func resultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Schema()) != len(b.Schema()) {
		t.Fatalf("%s: schema width %d vs %d", label, len(a.Schema()), len(b.Schema()))
	}
	for i := range a.Schema() {
		if a.Schema()[i] != b.Schema()[i] {
			t.Fatalf("%s: schema[%d] %+v vs %+v", label, i, a.Schema()[i], b.Schema()[i])
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d rows vs %d", label, a.Len(), b.Len())
	}
	ra, rb := a.Rows(), b.Rows()
	for r := range ra {
		for c := range ra[r] {
			x, y := ra[r][c], rb[r][c]
			if fx, ok := x.(float64); ok {
				if math.Float64bits(fx) != math.Float64bits(y.(float64)) {
					t.Fatalf("%s: row %d col %d: %v (%#x) vs %v", label, r, c, x, math.Float64bits(fx), y)
				}
				continue
			}
			if x != y {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, r, c, x, y)
			}
		}
	}
}

// runDecodeFirst executes sel with the plan's compressed-execution choices
// stripped: nothing is pushed to storage (the whole WHERE runs as a residual
// over decoded batches, so no block is matched on its encoded form) and the
// aggregate folds decoded rows in chunks instead of encoded runs. It is the
// kernel-vs-kernel baseline for single-table statements.
func runDecodeFirst(db Database, sel *sqlparse.Select) (*Result, error) {
	p, err := plan.Build(sel, db)
	if err != nil {
		return nil, err
	}
	for n := p.Root; ; n = n.Children[0] {
		n.Runs = false
		if n.Access != nil {
			n.Op, n.Access = plan.OpSeqScan, &plan.Access{Residual: p.Sel.Where}
			break
		}
	}
	return execPlan(context.Background(), db, p, nil)
}

// TestCompressedExecOnOffBitIdentical runs representative queries — scans
// with dict/RLE pushdown, dictionary-absent probes, run-aware aggregates
// over NaN and signed-zero runs — through the engine's plan and through the
// decode-first kernels, and requires bit-identical results.
func TestCompressedExecOnOffBitIdentical(t *testing.T) {
	db := newCompressibleDB(t, 400)
	queries := []string{
		"SELECT g, count(*), sum(r), min(v), max(v) FROM t GROUP BY g ORDER BY g",
		"SELECT count(r), sum(v), avg(v), min(r), max(g) FROM t",
		"SELECT r, v FROM t WHERE g = 'missing'",
		"SELECT seq FROM t WHERE g = 'red' LIMIT 7",
		"SELECT v, seq FROM t WHERE r >= 3",
		"SELECT g, seq FROM t WHERE v = 1.5",
		"SELECT g, sum(seq), avg(seq) FROM t GROUP BY g ORDER BY g",
		"SELECT count(*) FROM t WHERE g <> 'red' AND r < 2",
	}
	for _, q := range queries {
		on, errOn := RunSelectCtx(context.Background(), db, selStmt(t, q))
		off, errOff := runDecodeFirst(db, selStmt(t, q))
		if (errOn != nil) != (errOff != nil) {
			t.Fatalf("%s: compressed err %v, decoded err %v", q, errOn, errOff)
		}
		if errOn != nil {
			continue
		}
		resultsIdentical(t, q, on, off)
	}
}

// TestRunAggregateNaNOverflowMatchesRowPath pins the issue's RLE aggregate
// edge cases: NaN runs poison SUM/AVG identically on both paths, MIN/MAX
// propagate through NaN runs the same way, and sums that overflow to +Inf
// do so on both paths.
func TestRunAggregateNaNOverflowMatchesRowPath(t *testing.T) {
	schema := colstore.Schema{
		{Name: "k", Type: colstore.TypeInt64},
		{Name: "w", Type: colstore.TypeFloat64},
	}
	seg := colstore.NewSegment(schema, 16)
	b := colstore.NewBatch(schema)
	huge := math.MaxFloat64
	wPalette := []float64{huge, huge, math.NaN(), math.Copysign(0, -1), -3.5}
	for i := 0; i < 80; i++ {
		if err := b.Cols[0].AppendValue(int64(i / 40)); err != nil {
			t.Fatal(err)
		}
		// Runs of 8: two MaxFloat64 runs in group 0 overflow its SUM to +Inf
		// before the NaN run arrives in group... (palette repeats per group).
		if err := b.Cols[1].AppendValue(wPalette[(i/8)%len(wPalette)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	db := &fakeDB{def: &catalog.TableDef{Name: "t", Schema: schema}, seg: seg}
	for _, q := range []string{
		"SELECT sum(w), avg(w), min(w), max(w), count(w) FROM t",
		"SELECT k, sum(w), min(w), max(w) FROM t GROUP BY k ORDER BY k",
	} {
		on, err := RunSelectCtx(context.Background(), db, selStmt(t, q))
		if err != nil {
			t.Fatalf("%s (compressed): %v", q, err)
		}
		off, err := runDecodeFirst(db, selStmt(t, q))
		if err != nil {
			t.Fatalf("%s (decoded): %v", q, err)
		}
		resultsIdentical(t, q, on, off)
	}
}

// TestProfileDistinguishesSkippedAndCompressed pins the satellite: over a
// known 10-block segment, PROFILE must report zone-map-skipped blocks and
// compressed-evaluated blocks as distinct numbers in the scan OpProfile.
func TestProfileDistinguishesSkippedAndCompressed(t *testing.T) {
	schema := colstore.Schema{{Name: "x", Type: colstore.TypeInt64}}
	seg := colstore.NewSegment(schema, 100)
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i / 100) // block bi = 100 copies of bi: RLE + tight zone maps
	}
	bb := &colstore.Batch{Schema: schema, Cols: []*colstore.Vector{colstore.IntVector(xs)}}
	if err := seg.Append(bb); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	db := &fakeDB{def: &catalog.TableDef{Name: "t", Schema: schema}, seg: seg}
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE SELECT x FROM t WHERE x = 5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 100 {
		t.Fatalf("rows = %d, want 100", res.Len())
	}
	var scan OpProfile
	for _, op := range res.Profile.Ops() {
		if op.Op == "scan" {
			scan = op
		}
	}
	if scan.Blocks != 1 || scan.BlocksSkipped != 9 || scan.BlocksCompressed != 1 {
		t.Fatalf("scan profile %+v, want 1 block / 9 skipped / 1 compressed", scan)
	}
	if !strings.Contains(scan.Detail, "9 skipped") || !strings.Contains(scan.Detail, "1 evaluated compressed") {
		t.Fatalf("scan detail %q should report skips and compressed blocks distinctly", scan.Detail)
	}

	// The run-aware aggregate path reports its own scan/aggregate pair.
	res, err = RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE SELECT count(*), sum(x), min(x), max(x) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]OpProfile{}
	for _, op := range res.Profile.Ops() {
		got[op.Op] = op
	}
	if got["scan"].BlocksCompressed != 10 || got["scan"].Blocks != 10 {
		t.Fatalf("run-aware scan profile %+v, want 10 blocks all compressed", got["scan"])
	}
	if !strings.Contains(got["aggregate"].Detail, "run-aware") {
		t.Fatalf("aggregate detail %q should mark the run-aware path", got["aggregate"].Detail)
	}
	rows := res.Rows()
	if rows[0][0] != int64(1000) || rows[0][1] != float64(4500) || rows[0][2] != int64(0) || rows[0][3] != int64(9) {
		t.Fatalf("run-aware aggregate results = %v", rows[0])
	}
}

// sumTransform is a minimal UDTF: one float column in, one row out per
// partition holding the partition's sum.
type sumTransform struct{}

func (sumTransform) OutputSchema(in colstore.Schema, params udf.Params) (colstore.Schema, error) {
	return colstore.Schema{{Name: "total", Type: colstore.TypeFloat64}}, nil
}

func (sumTransform) ProcessPartition(ctx *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	total := 0.0
	for {
		b, err := in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, x := range b.Cols[0].Floats {
			total += x
		}
	}
	return out.Write(&colstore.Batch{
		Schema: colstore.Schema{{Name: "total", Type: colstore.TypeFloat64}},
		Cols:   []*colstore.Vector{colstore.FloatVector([]float64{total})},
	})
}

type udtfFakeDB struct {
	fakeDB
	reg *udf.Registry
}

func (f *udtfFakeDB) UDFs() *udf.Registry { return f.reg }

// TestUDTFWhere: WHERE now filters UDTF input rows (pushdown + residual)
// instead of being rejected, and the scan profile carries the skip counts.
func TestUDTFWhere(t *testing.T) {
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeInt64},
		{Name: "w", Type: colstore.TypeFloat64},
	}
	seg := colstore.NewSegment(schema, 100)
	b := colstore.NewBatch(schema)
	for i := 0; i < 1000; i++ {
		if err := b.Cols[0].AppendValue(int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Cols[1].AppendValue(float64(i % 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	reg := udf.NewRegistry()
	if err := reg.Register("PartSum", func() udf.Transform { return sumTransform{} }); err != nil {
		t.Fatal(err)
	}
	db := &udtfFakeDB{
		fakeDB: fakeDB{def: &catalog.TableDef{Name: "t", Schema: schema}, seg: seg},
		reg:    reg,
	}
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE SELECT PartSum(w) OVER (PARTITION BEST) FROM t WHERE x >= 900 AND w < 5"))
	if err != nil {
		t.Fatal(err)
	}
	// x in [900,1000) with w = x%10 < 5: 50 rows, each decade contributing
	// 0+1+2+3+4 = 10 → total 100.
	total := 0.0
	for _, row := range res.Rows() {
		total += row[0].(float64)
	}
	if total != 100 {
		t.Fatalf("partition sums total %v, want 100", total)
	}
	var scan OpProfile
	for _, op := range res.Profile.Ops() {
		if op.Op == "scan" {
			scan = op
		}
	}
	if scan.Rows != 50 {
		t.Fatalf("udtf scan rows = %d, want 50 after WHERE", scan.Rows)
	}
	if scan.BlocksSkipped != 9 {
		t.Fatalf("udtf scan profile %+v, want 9 zone-map skips", scan)
	}
	if !strings.Contains(scan.Detail, "9 skipped") || !strings.Contains(scan.Detail, "pushdown x") {
		t.Fatalf("udtf scan detail %q should report skips and the pushed predicate", scan.Detail)
	}

	// GROUP BY stays rejected.
	if _, err := RunSelectCtx(context.Background(), db, selStmt(t, "SELECT PartSum(w) OVER (PARTITION BEST) FROM t GROUP BY x")); err == nil {
		t.Fatal("UDTF with GROUP BY should error")
	}
}

// TestUDTFPartitionByTypedKeys: PARTITION BY groups by the typed key tuple,
// as GROUP BY does — a rendered key ran ("a\x00","b") and ("a","\x00b") as
// one partition. sumTransform emits one row per partition, in
// first-appearance order.
func TestUDTFPartitionByTypedKeys(t *testing.T) {
	schema := colstore.Schema{
		{Name: "p", Type: colstore.TypeString},
		{Name: "q", Type: colstore.TypeString},
		{Name: "ok", Type: colstore.TypeBool},
		{Name: "f", Type: colstore.TypeFloat64},
		{Name: "w", Type: colstore.TypeFloat64},
	}
	nan1 := math.NaN()
	nan2 := math.Float64frombits(math.Float64bits(nan1) ^ 1) // a second payload
	rows := [][]any{
		{"a\x00", "b", true, nan1, 1.0},
		{"a", "\x00b", true, 0.0, 2.0},
		{"a\x00", "b", false, nan2, 4.0},
		{"a", "\x00b", true, math.Copysign(0, -1), 8.0},
		{"a\x00", "b", true, 0.0, 16.0},
	}
	b := colstore.NewBatch(schema)
	for _, r := range rows {
		if err := b.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	seg := colstore.NewSegment(schema, 100)
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	reg := udf.NewRegistry()
	if err := reg.Register("PartSum", func() udf.Transform { return sumTransform{} }); err != nil {
		t.Fatal(err)
	}
	db := &udtfFakeDB{
		fakeDB: fakeDB{def: &catalog.TableDef{Name: "t", Schema: schema}, seg: seg},
		reg:    reg,
	}
	for _, c := range []struct {
		by   string
		want []float64 // partition sums of w, in first-appearance order
	}{
		{"p, q", []float64{1 + 4 + 16, 2 + 8}},    // separator bytes keep the tuples apart
		{"ok", []float64{1 + 2 + 8 + 16, 4}},      // BOOLEAN key
		{"f", []float64{1 + 4, 2 + 16, 8}},        // every NaN is one key; -0.0 and +0.0 are two
		{"p, q, ok", []float64{1 + 16, 2 + 8, 4}}, // a third column splits a pair
		{"ok, f", []float64{1, 2 + 16, 4, 8}},
	} {
		res, err := RunSelectCtx(context.Background(), db, selStmt(t, "SELECT PartSum(w) OVER (PARTITION BY "+c.by+") FROM t"))
		if err != nil {
			t.Fatalf("PARTITION BY %s: %v", c.by, err)
		}
		got := res.Batch.Cols[0].Floats
		if !slices.Equal(got, c.want) {
			t.Fatalf("PARTITION BY %s: partition sums %v, want %v", c.by, got, c.want)
		}
	}
}
