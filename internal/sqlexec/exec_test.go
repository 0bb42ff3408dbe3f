package sqlexec

import (
	"context"
	"strings"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/udf"
)

// fakeDB is a single-table, single-node Database for executor tests.
type fakeDB struct {
	def *catalog.TableDef
	seg *colstore.Segment
}

func (f *fakeDB) TableDef(name string) (*catalog.TableDef, error) { return f.def, nil }
func (f *fakeDB) Segments(name string) ([]*colstore.Segment, error) {
	return []*colstore.Segment{f.seg}, nil
}
func (f *fakeDB) UDFs() *udf.Registry      { return udf.NewRegistry() }
func (f *fakeDB) UDFInstancesPerNode() int { return 1 }
func (f *fakeDB) Services() map[string]any { return nil }

// newFakeDB builds a table t(x INT, y INT) with rows x=0..n-1, y=x%7, stored
// in sealed 100-row blocks so zone maps have something to skip.
func newFakeDB(t *testing.T, n int) *fakeDB {
	t.Helper()
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeInt64},
		{Name: "y", Type: colstore.TypeInt64},
	}
	seg := colstore.NewSegment(schema, 100)
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
		ys[i] = int64(i % 7)
	}
	b := &colstore.Batch{
		Schema: schema,
		Cols:   []*colstore.Vector{colstore.IntVector(xs), colstore.IntVector(ys)},
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	return &fakeDB{
		def: &catalog.TableDef{Name: "t", Schema: schema},
		seg: seg,
	}
}

func selStmt(t testing.TB, sql string) *sqlparse.Select {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparse.Select)
}

// A call's USING PARAMETERS values are constants handed to the function:
// the executor reads no column for them, and an aggregate there does not
// make the statement aggregate; the planner still checks a qualifier there
// as it checks every other.
func TestUsingParametersAreNotColumnReads(t *testing.T) {
	db := newFakeDB(t, 1000)
	for _, sql := range []string{
		"SELECT ABS(x USING PARAMETERS p=nosuch) FROM t WHERE x < 3",
		"SELECT ABS(x USING PARAMETERS p=SUM(y)) FROM t WHERE x < 3",
	} {
		res, err := RunSelectCtx(context.Background(), db, selStmt(t, sql))
		if err != nil || res.Len() != 3 {
			t.Fatalf("%s: %v, %v; want 3 rows", sql, res, err)
		}
	}
	sql := "SELECT ABS(x USING PARAMETERS p=zz.y) FROM t"
	if _, err := RunSelectCtx(context.Background(), db, selStmt(t, sql)); err == nil || !strings.Contains(err.Error(), `unknown table "zz"`) {
		t.Fatalf("%s: err = %v", sql, err)
	}
}

func TestProfileSelectRecordsOperators(t *testing.T) {
	db := newFakeDB(t, 1000)
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE SELECT x, y FROM t WHERE x >= 900 ORDER BY x DESC LIMIT 5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("rows = %d, want 5", res.Len())
	}
	if res.Profile == nil {
		t.Fatal("PROFILE SELECT returned no profile")
	}
	got := map[string]OpProfile{}
	for _, op := range res.Profile.Ops() {
		got[op.Op] = op
	}
	for _, want := range []string{"scan", "project", "sort", "limit"} {
		if _, ok := got[want]; !ok {
			t.Fatalf("profile missing %q operator; have %v", want, res.Profile.Ops())
		}
	}
	if got["scan"].Rows != 100 {
		t.Fatalf("scan rows = %d, want 100 (pushdown x >= 900)", got["scan"].Rows)
	}
	// x >= 900 over 10 sealed 100-row blocks: zone maps skip blocks 0-8.
	if !strings.Contains(got["scan"].Detail, "9 skipped") {
		t.Fatalf("scan detail %q should report 9 skipped blocks", got["scan"].Detail)
	}
	if got["limit"].Rows != 5 {
		t.Fatalf("limit rows = %d, want 5", got["limit"].Rows)
	}
	if res.Profile.Total <= 0 {
		t.Fatal("profile total not stamped")
	}
	if s := res.Profile.String(); !strings.Contains(s, "operator") || !strings.Contains(s, "scan") {
		t.Fatalf("profile render missing table: %q", s)
	}
}

func TestProfileNotCollectedWithoutKeyword(t *testing.T) {
	db := newFakeDB(t, 100)
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "SELECT x FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatal("plain SELECT should not carry a profile")
	}
}

// The bugfix-sweep check: a conjunctive WHERE still consults segment min/max
// stats, and both conjuncts are evaluated exactly in storage.
func TestConjunctionPushdownSkipsBlocks(t *testing.T) {
	db := newFakeDB(t, 1000)
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE SELECT x FROM t WHERE x >= 900 AND y = 3"))
	if err != nil {
		t.Fatal(err)
	}
	// x in [900,1000) with x%7 == 3: x = 903, 910, ..., 994.
	want := 0
	for x := 900; x < 1000; x++ {
		if x%7 == 3 {
			want++
		}
	}
	if res.Len() != want {
		t.Fatalf("rows = %d, want %d", res.Len(), want)
	}
	got := map[string]OpProfile{}
	for _, op := range res.Profile.Ops() {
		got[op.Op] = op
	}
	if !strings.Contains(got["scan"].Detail, "9 skipped") {
		t.Fatalf("AND pushdown should still skip 9 blocks; scan detail %q", got["scan"].Detail)
	}
	if d := got["scan"].Detail; !strings.Contains(d, "pushdown ") || !strings.Contains(d, "x >= 900") || !strings.Contains(d, "y = 3") {
		t.Fatalf("scan detail %q should name both pushed conjuncts", d)
	}
	if got["scan"].Rows != int64(want) {
		t.Fatalf("scan rows = %d, want %d: both conjuncts exact in storage", got["scan"].Rows, want)
	}
	if _, ok := got["filter"]; ok {
		t.Fatal("no conjunct is left to a filter operator")
	}
}

// Every operator span a traced query opens is ended — with a residual (the
// filter operator runs) and without one (it must not be opened at all).
func TestTracedSelectEndsEverySpan(t *testing.T) {
	db := newFakeDB(t, 1000)
	for sql, wantFilter := range map[string]bool{
		"SELECT x FROM t WHERE x >= 900":               false,
		"SELECT x FROM t WHERE x >= 900 AND y = 3":     false,
		"SELECT x FROM t WHERE x >= 900 AND x + y > 3": true,
		"SELECT y, count(*) FROM t GROUP BY y":         false,
	} {
		log := telemetry.NewSpanLog(nil)
		root := log.StartSpan("query")
		ctx := telemetry.ContextWithSpan(context.Background(), root)
		if _, err := RunSelectCtx(ctx, db, selStmt(t, sql)); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		root.End()
		sawFilter := false
		for _, sp := range log.Export() {
			if !sp.Ended {
				t.Fatalf("%s: span %s was never ended", sql, sp.Name)
			}
			sawFilter = sawFilter || sp.Name == "op:filter"
		}
		if sawFilter != wantFilter {
			t.Fatalf("%s: op:filter span present = %v, want %v", sql, sawFilter, wantFilter)
		}
	}
}

// Regression: COUNT(*) with no column references used to scan all columns
// against an empty projection schema and fail with a batch-append mismatch.
func TestCountStarNoWhere(t *testing.T) {
	db := newFakeDB(t, 100)
	res, err := RunSelectCtx(context.Background(), db, selStmt(t, "SELECT count(*) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != int64(100) {
		t.Fatalf("count = %v, want 100", res.Rows()[0][0])
	}
}
