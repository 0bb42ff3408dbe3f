package plan

import (
	"strings"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

type fakeSource struct {
	defs map[string]*catalog.TableDef
	segs map[string][]*colstore.Segment
}

func (f *fakeSource) TableDef(name string) (*catalog.TableDef, error) {
	d, ok := f.defs[name]
	if !ok {
		return nil, &unknownTable{name}
	}
	return d, nil
}

func (f *fakeSource) Segments(name string) ([]*colstore.Segment, error) {
	return f.segs[name], nil
}

type unknownTable struct{ name string }

func (e *unknownTable) Error() string { return "unknown table " + e.name }

func newFake(t *testing.T) *fakeSource {
	t.Helper()
	schemaT := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
	}
	schemaU := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "b", Type: colstore.TypeInt64},
	}
	mk := func(schema colstore.Schema, rows int, fill func(b *colstore.Batch, i int)) []*colstore.Segment {
		var segs []*colstore.Segment
		for s := 0; s < 2; s++ {
			seg := colstore.NewSegment(schema, 128)
			b := colstore.NewBatch(schema)
			for i := 0; i < rows; i++ {
				fill(b, s*rows+i)
			}
			if err := seg.Append(b); err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		return segs
	}
	f := &fakeSource{
		defs: map[string]*catalog.TableDef{
			"t": {Name: "t", Schema: schemaT},
			"u": {Name: "u", Schema: schemaU},
		},
		segs: map[string][]*colstore.Segment{},
	}
	f.segs["t"] = mk(schemaT, 2000, func(b *colstore.Batch, i int) {
		_ = b.AppendRow(int64(i), int64(i%50), float64(i)/8)
	})
	f.segs["u"] = mk(schemaU, 300, func(b *colstore.Batch, i int) {
		_ = b.AppendRow(int64(i%100), int64(i%7))
	})
	return f
}

func parseSel(t *testing.T, sql string) *sqlparse.Select {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparse.Select)
}

func TestIndexScanChosenWhenSelective(t *testing.T) {
	f := newFake(t)
	for _, seg := range f.segs["t"] {
		if err := seg.BuildIndex("id"); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Build(parseSel(t, "SELECT a FROM t WHERE id = 7"), f)
	if err != nil {
		t.Fatal(err)
	}
	scan := p.Root
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if scan.Op != OpIndexScan || scan.Access.IndexCol != "id" {
		t.Fatalf("expected IndexScan on id, got %s %+v", scan.Op, scan.Access)
	}
	if scan.EstRows <= 0 || scan.EstRows > 10 {
		t.Fatalf("point-lookup estimate = %d", scan.EstRows)
	}
	// Without the index, the same query seq-scans with a pushdown.
	for _, seg := range f.segs["t"] {
		seg.DropIndex("id")
	}
	p, err = Build(parseSel(t, "SELECT a FROM t WHERE id = 7"), f)
	if err != nil {
		t.Fatal(err)
	}
	scan = p.Root
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if scan.Op != OpSeqScan || len(scan.Access.Preds) == 0 {
		t.Fatalf("expected SeqScan with pushdown, got %s %+v", scan.Op, scan.Access)
	}
}

func TestMultiConjunctZonePreds(t *testing.T) {
	f := newFake(t)
	p, err := Build(parseSel(t, "SELECT a FROM t WHERE a = 3 AND id >= 3900 AND x > 1"), f)
	if err != nil {
		t.Fatal(err)
	}
	scan := p.Root.Children[0]
	acc := scan.Access
	// Selectivities: a = 3 -> 1/NDV(a) = 1/50 = 0.02; id >= 3900 ->
	// (3999-3900)/3999 ~ 0.025; x > 1 -> ~0.998. Every conjunct is exact in
	// storage, most selective first, and none is filtered again.
	var got []string
	for _, p := range acc.Preds {
		got = append(got, p.Col)
	}
	if strings.Join(got, ",") != "a,id,x" {
		t.Fatalf("pushed predicates on %v, want a, id, x", got)
	}
	if acc.Residual != nil {
		t.Fatalf("pushed conjuncts must not be re-filtered: %v", acc.Residual)
	}
	if scan.Detail != "pushdown a = 3 AND id >= 3900 AND x > 1" {
		t.Fatalf("scan detail %q", scan.Detail)
	}
}

func TestJoinPlanShape(t *testing.T) {
	f := newFake(t)
	p, err := Build(parseSel(t, "SELECT t.a, u.b FROM t JOIN u ON t.id = u.id WHERE t.a = 1 AND u.b = 2 AND t.x > u.b"), f)
	if err != nil {
		t.Fatal(err)
	}
	// Root should be Project over HashJoin.
	if p.Root.Op != OpProject {
		t.Fatalf("root = %s", p.Root.Op)
	}
	j := p.Root.Children[0]
	if j.Op != OpHashJoin || j.LeftKey != "t.id" || j.RightKey != "u.id" {
		t.Fatalf("join = %s %s=%s", j.Op, j.LeftKey, j.RightKey)
	}
	if j.Residual == nil {
		t.Fatal("cross-table conjunct must stay at the join")
	}
	lt, rt := j.Children[0], j.Children[1]
	if lt.Table != "t" || rt.Table != "u" {
		t.Fatalf("scan tables: %s, %s", lt.Table, rt.Table)
	}
	// Single-table conjuncts pushed into the scans with bare names.
	if len(lt.Access.Preds) != 1 || lt.Access.Preds[0].Col != "a" {
		t.Fatalf("t-side pushdown missing: %+v", lt.Access)
	}
	if len(rt.Access.Preds) != 1 || rt.Access.Preds[0].Col != "b" {
		t.Fatalf("u-side pushdown missing: %+v", rt.Access)
	}
	// Normalized projection references are canonical dotted names.
	if cr, ok := p.Sel.Items[0].Expr.(*sqlparse.ColRef); !ok || cr.Name != "t.a" || cr.Table != "" {
		t.Fatalf("normalized item = %+v", p.Sel.Items[0].Expr)
	}
}

func TestJoinErrors(t *testing.T) {
	f := newFake(t)
	for _, bad := range []string{
		"SELECT * FROM t JOIN u ON t.id < u.id",
		"SELECT * FROM t JOIN u ON t.id = t.a",
		"SELECT id FROM t JOIN u ON t.id = u.id",               // ambiguous bare column
		"SELECT t.a FROM t JOIN u ON t.id = u.id WHERE zz = 1", // unknown column
		"SELECT t.a FROM t JOIN t ON t.id = t.id",              // duplicate alias
	} {
		if _, err := Build(parseSel(t, bad), f); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
	// Unambiguous bare columns resolve across tables.
	p, err := Build(parseSel(t, "SELECT a, b FROM t JOIN u ON t.id = u.id"), f)
	if err != nil {
		t.Fatal(err)
	}
	if cr := p.Sel.Items[0].Expr.(*sqlparse.ColRef); cr.Name != "t.a" {
		t.Fatalf("bare a resolved to %q", cr.Name)
	}
	if cr := p.Sel.Items[1].Expr.(*sqlparse.ColRef); cr.Name != "u.b" {
		t.Fatalf("bare b resolved to %q", cr.Name)
	}
}

func TestExplainRendering(t *testing.T) {
	f := newFake(t)
	p, err := Build(parseSel(t, "SELECT a, COUNT(*) FROM t WHERE id < 100 GROUP BY a ORDER BY a LIMIT 5"), f)
	if err != nil {
		t.Fatal(err)
	}
	actuals, unmatched := p.MatchActuals([]OpStat{
		{Op: "scan", Rows: 200},
		{Op: "aggregate", Rows: 50},
		{Op: "sort", Rows: 50},
		{Op: "limit", Rows: 5},
	})
	if len(unmatched) != 0 {
		t.Fatalf("unmatched ops: %v", unmatched)
	}
	lines := p.Text(actuals)
	if len(lines) != 4 {
		t.Fatalf("text lines: %v", lines)
	}
	if !strings.Contains(lines[0], "Limit") || !strings.Contains(lines[0], "actual=5") {
		t.Fatalf("limit line: %q", lines[0])
	}
	if !strings.Contains(lines[3], "SeqScan on t") || !strings.Contains(lines[3], "actual=200") {
		t.Fatalf("scan line: %q", lines[3])
	}
	js, err := p.JSON(actuals)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"op": "Limit"`, `"op": "SeqScan"`, `"est_rows"`, `"actual_rows": 200`} {
		if !strings.Contains(string(js), want) {
			t.Fatalf("json missing %s:\n%s", want, js)
		}
	}
	// Elided limit stage inherits its child's actual.
	actuals, unmatched = p.MatchActuals([]OpStat{
		{Op: "scan", Rows: 200},
		{Op: "aggregate", Rows: 3},
		{Op: "sort", Rows: 3},
	})
	if actuals[p.Root.ID] != 3 || len(unmatched) != 0 {
		t.Fatalf("elided limit actual = %d, unmatched %v", actuals[p.Root.ID], unmatched)
	}
	// An operator the tree has no node for is reported, not absorbed; a
	// residual's filter entry belongs to its scan.
	p, err = Build(parseSel(t, "SELECT a FROM t WHERE id < 100 AND a + 1 > 2"), f)
	if err != nil {
		t.Fatal(err)
	}
	_, unmatched = p.MatchActuals([]OpStat{
		{Op: "scan", Rows: 200},
		{Op: "filter", Rows: 90},
		{Op: "join", Rows: 90},
		{Op: "project", Rows: 90},
		{Op: "sort", Rows: 90},
	})
	if len(unmatched) != 2 || unmatched[0].Op != "join" || unmatched[1].Op != "sort" {
		t.Fatalf("unmatched = %v, want [join sort]", unmatched)
	}
}

func parseExpr(t *testing.T, s string) sqlparse.Expr {
	t.Helper()
	return parseSel(t, "SELECT a FROM t WHERE "+s).Where
}

func TestPredFromExpr(t *testing.T) {
	cases := map[string]*colstore.Pred{
		"i > 5":     {Col: "i", Op: colstore.OpGT, Val: int64(5)},
		"5 > i":     {Col: "i", Op: colstore.OpLT, Val: int64(5)},
		"f <= 1.5":  {Col: "f", Op: colstore.OpLE, Val: 1.5},
		"f >= -1.5": {Col: "f", Op: colstore.OpGE, Val: -1.5},
		"s = 'x'":   {Col: "s", Op: colstore.OpEQ, Val: "x"},
		"b <> TRUE": {Col: "b", Op: colstore.OpNE, Val: true},
	}
	for s, want := range cases {
		got := predFromExpr(parseExpr(t, s))
		if got == nil || got.Col != want.Col || got.Op != want.Op || got.Val != want.Val {
			t.Fatalf("pushdown %q = %+v, want %+v", s, got, want)
		}
	}
	for _, s := range []string{"i + 1 > 5", "i > f", "i > 5 AND f < 2", "NOT b", "t.i > 5"} {
		if got := predFromExpr(parseExpr(t, s)); got != nil {
			t.Fatalf("%q should not push down, got %+v", s, got)
		}
	}
}

// TestChooseAccessConjuncts pins how a WHERE clause splits into the exact
// conjunction storage evaluates and the residual, wherever the pushable
// conjuncts sit.
func TestChooseAccessConjuncts(t *testing.T) {
	ts := &tableStats{cache: map[string]colstore.ColumnStats{}, schema: colstore.Schema{
		{Name: "i", Type: colstore.TypeInt64},
		{Name: "f", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeBool},
		{Name: "s", Type: colstore.TypeString},
	}}
	access := func(where string) *Access {
		var e sqlparse.Expr
		if where != "" {
			e = parseExpr(t, where)
		}
		acc, _ := chooseAccess(analyzeConjuncts(e, ts), ts, false)
		return acc
	}
	cols := func(acc *Access) string {
		var out []string
		for _, p := range acc.Preds {
			out = append(out, p.String())
		}
		return strings.Join(out, ", ")
	}
	// Whole clause pushable: no residual.
	if acc := access("i > 5"); cols(acc) != "i > 5" || acc.Residual != nil {
		t.Fatalf("single comparison: %+v", acc)
	}
	// Without statistics to rank them every pushable conjunct goes to
	// storage in conjunct order; only the unpushable one stays behind.
	acc := access("i > 5 AND f < 2.0 AND b")
	if cols(acc) != "i > 5, f < 2" {
		t.Fatalf("AND chain pushdown = %s", cols(acc))
	}
	if acc.Residual == nil || acc.Residual.String() != "b" {
		t.Fatalf("residual = %v, want the unpushable conjunct", acc.Residual)
	}
	// Pushable conjunct in the middle.
	acc = access("b AND i = 3 AND NOT b")
	if cols(acc) != "i = 3" || acc.Residual == nil {
		t.Fatalf("middle conjunct: %+v", acc)
	}
	// A literal that does not compare with its column is not pushed: the
	// residual rejects it over no rows as over any.
	acc = access("s > 3 AND i > 5 AND b = 1 AND f < 'x' AND f > 2")
	if cols(acc) != "i > 5, f > 2" || acc.Residual == nil || acc.Residual.String() != "(((s > 3) AND (b = 1)) AND (f < 'x'))" {
		t.Fatalf("mismatched literals: %s, residual %v", cols(acc), acc.Residual)
	}
	// Nothing pushable: WHERE passes through whole.
	if acc = access("b OR i > 5"); len(acc.Preds) != 0 || acc.Residual == nil || !strings.Contains(acc.Residual.String(), "OR") {
		t.Fatalf("OR clause: %+v", acc)
	}
	if acc = access(""); len(acc.Preds) != 0 || acc.Residual != nil {
		t.Fatalf("no WHERE: %+v", acc)
	}
}

func TestPlannerDoesNotMutateInput(t *testing.T) {
	f := newFake(t)
	sel := parseSel(t, "SELECT t.a FROM t AS t JOIN u ON t.id = u.id WHERE t.a = 1")
	before := sel.String()
	if _, err := Build(sel, f); err != nil {
		t.Fatal(err)
	}
	if sel.String() != before {
		t.Fatalf("planner mutated caller's AST:\n before %s\n after  %s", before, sel.String())
	}
}

func TestIndexRangeScanChosenForBoundedPair(t *testing.T) {
	f := newFake(t)
	for _, seg := range f.segs["t"] {
		if err := seg.BuildIndex("id"); err != nil {
			t.Fatal(err)
		}
	}
	// Each half-range alone keeps ~half the table — far over the index
	// threshold — but together they pin a 40-row window the planner must
	// serve as one bounded index range probe.
	p, err := Build(parseSel(t, "SELECT a FROM t WHERE id >= 1980 AND id < 2020"), f)
	if err != nil {
		t.Fatal(err)
	}
	scan := p.Root
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if scan.Op != OpIndexScan || scan.Access.IndexCol != "id" {
		t.Fatalf("expected bounded IndexScan on id, got %s %+v", scan.Op, scan.Access)
	}
	acc := scan.Access
	if acc.Probe != 2 || len(acc.Preds) != 2 || acc.Preds[0].Op != colstore.OpGE || acc.Preds[1].Op != colstore.OpLT {
		t.Fatalf("the probe should be the lower then the upper bound: %+v", acc)
	}
	// Both bounds are exact in storage — in the probe, and in the scan of a
	// segment that lacks the index — so neither is filtered again.
	if acc.Residual != nil {
		t.Fatalf("no residual expected: %v", acc.Residual)
	}
	if scan.EstRows <= 0 || scan.EstRows > 100 {
		t.Fatalf("bounded-range estimate = %d (want ~40)", scan.EstRows)
	}
	// A more selective equality on an indexed column still wins over the pair.
	for _, seg := range f.segs["t"] {
		if err := seg.BuildIndex("a"); err != nil {
			t.Fatal(err)
		}
	}
	p, err = Build(parseSel(t, "SELECT a FROM t WHERE id >= 0 AND id < 4000 AND a = 3"), f)
	if err != nil {
		t.Fatal(err)
	}
	scan = p.Root
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if scan.Op != OpIndexScan || scan.Access.IndexCol != "a" || scan.Access.Probe != 1 {
		t.Fatalf("equality should beat a near-full range, got %s %+v", scan.Op, scan.Access)
	}
}
