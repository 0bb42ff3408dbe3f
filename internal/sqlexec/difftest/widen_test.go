package difftest

import (
	"context"
	"fmt"
	"testing"

	"verticadr/internal/parallel"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
)

// TestDifferentialKeySpanWidening: INTEGER keys whose range the second of two
// loads widens below and above the first. A chunk, the run-aware fold and a
// join's build side each take a dense key span from the first block they
// meet, so later chunks, merged partials and probe rows bring keys outside
// it — the int64 extremes among them. The table is over two 4096-row chunks,
// and GROUP BY and INTEGER joins must match the reference bit for bit, group
// order included, at every degree.
func TestDifferentialKeySpanWidening(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	gen := NewGen(41)
	for _, shape := range []struct{ nsegs, blockRows int }{{1, 1000}, {3, 64}} {
		tdb, err := fakeDBLoads("t", TableSchema(), gen.WideningLoads(5000, 6000), shape.nsegs, shape.blockRows)
		if err != nil {
			t.Fatal(err)
		}
		udb, err := fakeDBLoads("u", TableSchema(), gen.WideningLoads(150, 250), shape.nsegs, shape.blockRows)
		if err != nil {
			t.Fatal(err)
		}
		db := NewMultiDB(tdb, udb)
		for _, sql := range WideningQueries {
			label := fmt.Sprintf("%d segments of %d-row blocks: %s", shape.nsegs, shape.blockRows, sql)
			// Two private ASTs: the reference canonicalizes its copy in place.
			refStmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			engStmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := db.RunReference(refStmt.(*sqlparse.Select))
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			if len(ref.Rows) == 0 {
				t.Fatalf("%s: no rows", label)
			}
			for _, deg := range diffDegrees {
				parallel.SetDefaultDegree(deg)
				res, err := sqlexec.RunSelectCtx(context.Background(), db, engStmt.(*sqlparse.Select))
				if err != nil {
					t.Fatalf("%s degree %d: %v", label, deg, err)
				}
				compareResults(t, 0, label, deg, ref, res)
			}
		}
	}
}
