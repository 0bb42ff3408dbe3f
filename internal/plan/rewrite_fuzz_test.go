package plan_test

import (
	"maps"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/sqlparse"
)

// exprNodes counts every expression node of sel: what a node put in
// another's place would change. (A call's USING PARAMETERS values are
// visited in map order, so the nodes are a set, not a sequence.)
func exprNodes(sel *sqlparse.Select) map[sqlparse.Expr]int {
	out := map[sqlparse.Expr]int{}
	sqlparse.RewriteSelect(sel, func(e sqlparse.Expr) (sqlparse.Expr, error) {
		out[e]++
		return e, nil
	}, nil)
	return out
}

// FuzzRewriteLeavesInput: nothing writes to a statement after Parse.
// Binding its placeholders, normalizing it and planning it — bound or not,
// over two tables a join can name — leave its rendering and every one of
// its nodes as they were; and a rewrite that changes nothing returns the
// node it was given without allocating.
func FuzzRewriteLeavesInput(f *testing.F) {
	f.Add("SELECT a, b * 2 AS d FROM t WHERE a < 3 OR s = 'z' GROUP BY a ORDER BY d DESC LIMIT 10")
	f.Add("SELECT t.a, t.s FROM t WHERE t.id = ? AND t.b > ?")
	f.Add("SELECT x.a FROM t AS x WHERE x.id >= ? ORDER BY x.a")
	f.Add("SELECT COUNT(*), SUM(b) FROM t WHERE id < ? GROUP BY s")
	f.Add("SELECT fn(a USING PARAMETERS k=?, m=t.b) OVER (PARTITION BEST) FROM t WHERE a > ?")
	f.Add("SELECT ABS(a USING PARAMETERS p=SUM(b)) FROM t")
	f.Add("SELECT t.a, u.k FROM t JOIN u ON t.id = u.id WHERE t.a = ? AND u.k > t.a")
	f.Add("SELECT a, k FROM t JOIN u AS v ON t.id = v.id GROUP BY a, k ORDER BY k")
	f.Add("SELECT zz.a FROM t WHERE ? = 1")
	f.Add("SELECT ?, -?, NOT ? FROM t")
	f.Add("SELECT 1 + ?")
	tdb, err := difftest.NewFakeDB("t", colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "a", Type: colstore.TypeInt64},
		{Name: "b", Type: colstore.TypeFloat64}, {Name: "s", Type: colstore.TypeString},
	}, [][]any{{int64(1), int64(2), 0.5, "x"}, {int64(2), int64(3), 1.5, "y"}}, 1, 4)
	if err != nil {
		f.Fatal(err)
	}
	udb, err := difftest.NewFakeDB("u", colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "k", Type: colstore.TypeInt64},
	}, [][]any{{int64(1), int64(7)}}, 1, 4)
	if err != nil {
		f.Fatal(err)
	}
	db := difftest.NewMultiDB(tdb, udb)
	identity := func(e sqlparse.Expr) (sqlparse.Expr, error) { return e, nil }
	f.Fuzz(func(t *testing.T, input string) {
		sel, err := sqlparse.ParseSelect(input)
		if err != nil {
			return
		}
		text, nodes := sel.String(), exprNodes(sel)
		args := make([]any, sel.NumParams)
		for i := range args {
			args[i] = []any{int64(i), float64(i) + 0.5, "v", i%2 == 0}[i%4]
		}
		bound, err := sqlparse.BindSelect(sel, args)
		if err != nil {
			t.Fatalf("%q: binding %v: %v", input, args, err)
		}
		plan.Build(sel, db)
		plan.Normalize(sel)
		plan.Normalize(bound)
		if p, err := plan.Build(bound, db); err == nil {
			plan.Build(p.Sel, db) // the normalized statement plans again
		}
		if got := sel.String(); got != text {
			t.Fatalf("%q: the statement renders as %q after binding and planning", text, got)
		}
		if after := exprNodes(sel); !maps.Equal(after, nodes) {
			t.Fatalf("%q: %d nodes after binding and planning, %d before, or other ones", text, len(after), len(nodes))
		}
		var same *sqlparse.Select
		if allocs := testing.AllocsPerRun(1, func() { same, _ = sqlparse.RewriteSelect(sel, identity, nil) }); allocs != 0 || same != sel {
			t.Fatalf("%q: an identity rewrite of the statement allocates %v times, returns the statement given: %v", text, allocs, same == sel)
		}
		for e := range nodes {
			var out sqlparse.Expr
			if allocs := testing.AllocsPerRun(1, func() { out, _ = sqlparse.Rewrite(e, identity) }); allocs != 0 || out != e {
				t.Fatalf("%q: an identity rewrite of %s allocates %v times, returns the node given: %v", text, e, allocs, out == e)
			}
		}
	})
}
