package difftest

import (
	"context"
	"flag"
	"testing"

	"verticadr/internal/parallel"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
)

// -difftest.short bounds the adversarial suite for CI smoke runs (make
// check); the full 600-query sweep still runs under plain `go test` and
// `make race`.
var shortRun = flag.Bool("difftest.short", false, "run a bounded compressed-execution differential suite")

// TestCompressedDifferentialAdversarial is the encoding-aware acceptance
// harness: generated queries over encoding-adversarial tables (long RLE runs
// with NaN and ±0.0, low-cardinality dictionary strings with absent-value
// probes, run boundaries straddling block edges, all-skipped zone-map
// blocks), executed by the row-serial reference and by the engine — which
// matches predicates on encoded blocks and folds encoded runs wherever its
// plan says so — at parallel degrees 1/2/4. Both must agree to the float
// bit, or both must error.
func TestCompressedDifferentialAdversarial(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	gen := NewGen(8088)
	// Sizes stay within one aggregation chunk (4096) so chunked MIN/MAX and
	// run-folded MIN/MAX see the same NaN merge order; 96/701 are chosen to
	// leave unsealed tails at every blockRows choice.
	sizes := []int{0, 1, 96, 256, 701, 2048}
	perTable := 50
	nQueries := 600
	if *shortRun {
		perTable = 20
		nQueries = 120
	}
	var errBoth, nonEmpty int
	var db *FakeDB
	for q := 0; q < nQueries; q++ {
		if q%perTable == 0 {
			nrows := sizes[(q/perTable)%len(sizes)]
			var err error
			db, err = gen.AdversarialTable(nrows)
			if err != nil {
				t.Fatalf("adversarial table gen: %v", err)
			}
		}
		built := gen.Query(len(db.SrcRows) + 1)
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
			if deg == 1 && len(ref.Rows) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no adversarial query produced rows; generator is broken")
	}
	t.Logf("ran %d queries x %d degrees: %d error-agreement cases, %d non-empty results",
		nQueries, len(diffDegrees), errBoth, nonEmpty)
}
