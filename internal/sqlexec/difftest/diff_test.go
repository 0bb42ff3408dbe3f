package difftest

import (
	"context"
	"math"
	"strings"
	"testing"

	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
)

// degrees exercised for every generated query. Degree 1 is the serial path;
// the others schedule the same chunks across workers and must not change a
// single bit of output.
var diffDegrees = []int{1, 2, 4}

// TestDifferentialEngineVsReference is the harness acceptance test: 600
// generated queries, each rendered to SQL, re-parsed, executed by the naive
// reference and by the engine at several parallel degrees, and compared
// exactly: schema, row order, and float bits. Every other table carries
// B-tree indexes, so the same queries run through index scans and through
// sequential scans. Each query is also profiled against its own plan:
// every operator that executed must be a node of the tree EXPLAIN prints.
func TestDifferentialEngineVsReference(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	gen := NewGen(2026)
	sizes := []int{0, 1, 7, 60, 200, 400}
	const perTable = 50
	nQueries := 600
	if *shortRun {
		nQueries = 150
	}
	var errBoth, nonEmpty int
	var db *FakeDB
	for q := 0; q < nQueries; q++ {
		if q%perTable == 0 {
			nrows := sizes[(q/perTable)%len(sizes)]
			var err error
			db, err = gen.Table(nrows)
			if err != nil {
				t.Fatalf("table gen: %v", err)
			}
			if (q/perTable)%2 == 0 {
				if err := db.BuildIndexes("id", "a", "x", "s"); err != nil {
					t.Fatalf("index build: %v", err)
				}
			}
		}
		built := gen.Query(len(db.SrcRows))
		sql := built.String()
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("query %d: generated SQL %q failed to parse: %v", q, sql, err)
		}
		sel := stmt.(*sqlparse.Select)

		ref, refErr := db.RunReference(sel)
		for _, deg := range diffDegrees {
			parallel.SetDefaultDegree(deg)
			res, engErr := sqlexec.RunSelectCtx(context.Background(), db, sel)
			if (refErr != nil) != (engErr != nil) {
				t.Fatalf("query %d %q degree %d: error mismatch\n  reference: %v\n  engine:    %v",
					q, sql, deg, refErr, engErr)
			}
			if refErr != nil {
				errBoth++
				continue
			}
			compareResults(t, q, sql, deg, ref, res)
			if ref != nil && len(ref.Rows) > 0 {
				nonEmpty++
			}
		}
		if refErr == nil {
			assertProfileIsPlan(t, db, sel)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no generated query produced rows; generator is broken")
	}
	t.Logf("ran %d queries x %d degrees: %d error-agreement cases, %d non-empty results",
		nQueries, len(diffDegrees), errBoth, nonEmpty)
}

// assertProfileIsPlan executes sel under PROFILE and matches the operators
// that ran against the statement's plan: one left over means something
// executed outside the tree EXPLAIN renders.
func assertProfileIsPlan(t *testing.T, db sqlexec.Database, sel *sqlparse.Select) {
	t.Helper()
	p, err := plan.Build(sel, db)
	if err != nil {
		t.Fatalf("%q: plan: %v", sel.String(), err)
	}
	profiled := *sel
	profiled.Profile = true
	res, err := sqlexec.RunSelectCtx(context.Background(), db, &profiled)
	if err != nil {
		t.Fatalf("%q: profiled run: %v", sel.String(), err)
	}
	var ops []plan.OpStat
	for _, op := range res.Profile.Ops() {
		ops = append(ops, plan.OpStat{Op: op.Op, Rows: op.Rows})
	}
	if _, unmatched := p.MatchActuals(ops); len(unmatched) > 0 {
		t.Fatalf("%q: operators %v ran outside the plan\n%s", sel.String(), unmatched, strings.Join(p.Text(nil), "\n"))
	}
}

// TestDifferentialJoinVsReference pins the hash-join path against a nested
// -loop reference: 300 generated equi-join queries over t/u table pairs
// (half of them indexed, some with NaN/-0.0 join keys), compared bitwise at
// several parallel degrees. Joins only execute through the planner, so this
// is the planner's acceptance harness for multi-table statements.
func TestDifferentialJoinVsReference(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	gen := NewGen(77)
	sizes := [][2]int{{0, 7}, {7, 0}, {1, 1}, {25, 60}, {60, 25}, {120, 90}}
	const perPair = 25
	nQueries := 300
	if *shortRun {
		nQueries = 75
	}
	var errBoth, nonEmpty int
	var db *MultiDB
	var lrows, rrows int
	for q := 0; q < nQueries; q++ {
		if q%perPair == 0 {
			sz := sizes[(q/perPair)%len(sizes)]
			lrows, rrows = sz[0], sz[1]
			tdb, err := gen.JoinTable("t", lrows)
			if err != nil {
				t.Fatalf("table gen: %v", err)
			}
			udb, err := gen.JoinTable("u", rrows)
			if err != nil {
				t.Fatalf("table gen: %v", err)
			}
			// Index int and string columns on alternating pairs; float
			// columns stay unindexed (join tables may hold NaN keys).
			if (q/perPair)%2 == 0 {
				if err := tdb.BuildIndexes("id", "a", "s"); err != nil {
					t.Fatalf("index build: %v", err)
				}
				if err := udb.BuildIndexes("a", "b", "s"); err != nil {
					t.Fatalf("index build: %v", err)
				}
			}
			db = NewMultiDB(tdb, udb)
		}
		built := gen.JoinQuery(lrows, rrows)
		sql := built.String()
		// Two private ASTs: the reference canonicalizes its copy in place.
		refStmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("query %d: generated SQL %q failed to parse: %v", q, sql, err)
		}
		engStmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("query %d: reparse %q: %v", q, sql, err)
		}

		ref, refErr := db.RunReference(refStmt.(*sqlparse.Select))
		for _, deg := range diffDegrees {
			parallel.SetDefaultDegree(deg)
			res, engErr := sqlexec.RunSelectCtx(context.Background(), db, engStmt.(*sqlparse.Select))
			if (refErr != nil) != (engErr != nil) {
				t.Fatalf("query %d %q degree %d: error mismatch\n  reference: %v\n  engine:    %v",
					q, sql, deg, refErr, engErr)
			}
			if refErr != nil {
				errBoth++
				continue
			}
			compareResults(t, q, sql, deg, ref, res)
			if len(ref.Rows) > 0 {
				nonEmpty++
			}
		}
		if refErr == nil {
			assertProfileIsPlan(t, db, engStmt.(*sqlparse.Select))
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no generated join produced rows; generator is broken")
	}
	t.Logf("ran %d join queries x %d degrees: %d error-agreement cases, %d non-empty results",
		nQueries, len(diffDegrees), errBoth, nonEmpty)
}

func compareResults(t *testing.T, q int, sql string, deg int, ref *RefResult, res *sqlexec.Result) {
	t.Helper()
	engSchema := res.Schema()
	if len(engSchema) != len(ref.Schema) {
		t.Fatalf("query %d %q degree %d: schema width %d, reference %d",
			q, sql, deg, len(engSchema), len(ref.Schema))
	}
	for i := range ref.Schema {
		if engSchema[i].Name != ref.Schema[i].Name || engSchema[i].Type != ref.Schema[i].Type {
			t.Fatalf("query %d %q degree %d: schema col %d is %s/%v, reference %s/%v",
				q, sql, deg, i, engSchema[i].Name, engSchema[i].Type, ref.Schema[i].Name, ref.Schema[i].Type)
		}
	}
	engRows := res.Rows()
	if len(engRows) != len(ref.Rows) {
		t.Fatalf("query %d %q degree %d: %d rows, reference %d",
			q, sql, deg, len(engRows), len(ref.Rows))
	}
	for ri := range ref.Rows {
		for ci := range ref.Rows[ri] {
			if !valuesIdentical(engRows[ri][ci], ref.Rows[ri][ci]) {
				t.Fatalf("query %d %q degree %d: row %d col %d is %#v, reference %#v",
					q, sql, deg, ri, ci, engRows[ri][ci], ref.Rows[ri][ci])
			}
		}
	}
}

// valuesIdentical compares two boxed values exactly; floats by bit pattern.
func valuesIdentical(a, b any) bool {
	af, aIsF := a.(float64)
	bf, bIsF := b.(float64)
	if aIsF || bIsF {
		return aIsF && bIsF && math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}
