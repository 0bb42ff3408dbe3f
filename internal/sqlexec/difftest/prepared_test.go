package difftest

import (
	"context"
	"testing"

	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
)

// TestDifferentialPreparedVsReference runs the generated single-table
// queries as prepared statements: every literal a comparison reads becomes a
// `?`, the template is planned once, and each execution binds the literals
// back as its arguments into that plan (Plan.Bind) — or, where the plan
// cannot take them, plans the bound statement, as the serving layer does.
// Each is executed twice at every degree, the second through what the
// first left in the plan's memos, and must match the reference run of the
// literal statement bit for bit, errors included.
func TestDifferentialPreparedVsReference(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	gen := NewGen(4848)
	sizes := []int{0, 1, 7, 60, 200, 400}
	const perTable = 50
	nQueries := 600
	if *shortRun {
		nQueries = 150
	}
	var generic, custom, withArgs int
	var db *FakeDB
	for q := 0; q < nQueries; q++ {
		if q%perTable == 0 {
			nrows := sizes[(q/perTable)%len(sizes)]
			var err error
			if db, err = gen.Table(nrows); err != nil {
				t.Fatalf("table gen: %v", err)
			}
			if (q/perTable)%2 == 0 {
				if err := db.BuildIndexes("id", "a", "x", "s"); err != nil {
					t.Fatalf("index build: %v", err)
				}
			}
		}
		sql := gen.Query(len(db.SrcRows)).String()
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("query %d: generated SQL %q failed to parse: %v", q, sql, err)
		}
		sel := stmt.(*sqlparse.Select)
		template, args := parameterize(sel)
		if len(args) > 0 {
			withArgs++
		}
		ref, refErr := db.RunReference(sel)
		generic0, buildErr := plan.Build(template, db)
		for _, deg := range diffDegrees {
			parallel.SetDefaultDegree(deg)
			for run := 0; run < 2; run++ {
				var out *sqlexec.Result
				engErr := buildErr
				if buildErr == nil {
					var isGeneric bool
					out, isGeneric, engErr = executePrepared(generic0, template, args, db)
					if isGeneric {
						generic++
					} else {
						custom++
					}
				}
				if (refErr != nil) != (engErr != nil) {
					t.Fatalf("query %d %q (template %q, args %v) degree %d run %d: error mismatch\n  reference: %v\n  prepared:  %v",
						q, sql, template.String(), args, deg, run, refErr, engErr)
				}
				if refErr == nil {
					compareResults(t, q, sql, deg, ref, out)
				}
			}
		}
	}
	if withArgs == 0 || generic == 0 {
		t.Fatalf("%d of %d queries took arguments, %d executions ran a generic plan: the harness tests nothing", withArgs, nQueries, generic)
	}
	t.Logf("ran %d queries (%d with arguments) x %d degrees x 2: %d generic executions, %d custom",
		nQueries, withArgs, len(diffDegrees), generic, custom)
}

// executePrepared runs one execution of a prepared template whose generic
// plan is p: p bound to args, or the bound statement planned afresh when p
// cannot take them. It reports which.
func executePrepared(p *plan.Plan, template *sqlparse.Select, args []any, db sqlexec.Database) (*sqlexec.Result, bool, error) {
	if bound, ok := p.Bind(args); ok {
		res, err := sqlexec.RunPlanCtx(context.Background(), db, bound)
		return res, true, err
	}
	sel, err := sqlparse.BindSelect(template, args)
	if err != nil {
		return nil, false, err
	}
	res, err := sqlexec.RunSelectCtx(context.Background(), db, sel)
	return res, false, err
}

// parameterize returns sel with every literal a WHERE comparison reads — a
// literal or a negated one — replaced by a `?`, numbered in text order, and
// the literals' values, the arguments that bind the template back to sel.
func parameterize(sel *sqlparse.Select) (*sqlparse.Select, []any) {
	var args []any
	lit := func(e sqlparse.Expr) sqlparse.Expr {
		v, ok := sqlparse.Literal(e)
		if !ok {
			return e
		}
		args = append(args, v)
		return &sqlparse.Placeholder{Idx: len(args) - 1}
	}
	where, _ := sqlparse.Rewrite(sel.Where, func(e sqlparse.Expr) (sqlparse.Expr, error) {
		bin, ok := e.(*sqlparse.Binary)
		if !ok {
			return e, nil
		}
		switch bin.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return e, nil
		}
		l := lit(bin.L)
		r := lit(bin.R)
		if l == bin.L && r == bin.R {
			return e, nil
		}
		return &sqlparse.Binary{Op: bin.Op, L: l, R: r}, nil
	})
	template := *sel
	template.Where, template.NumParams = where, len(args)
	return &template, args
}
