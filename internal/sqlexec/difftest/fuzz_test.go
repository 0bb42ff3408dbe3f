package difftest

import (
	"context"
	"math"
	"testing"

	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
)

// fuzzJoinQueries cover the typed join table's key classes — exact INTEGER,
// FLOAT (NaN, ±0.0), mixed INTEGER/FLOAT in both orders, VARCHAR, BOOLEAN —
// bare, under residual filters that span both sides, and under an aggregate.
var fuzzJoinQueries = []string{
	"SELECT t.id, u.id FROM t JOIN u ON t.a = u.a",
	"SELECT t.id, u.id FROM t JOIN u ON t.x = u.x",
	"SELECT t.id, u.id FROM t JOIN u ON t.a = u.x",
	"SELECT t.id, u.id FROM t JOIN u ON t.x = u.a",
	"SELECT t.id, u.id, u.s FROM t JOIN u ON t.s = u.s",
	"SELECT t.id, u.id FROM t JOIN u ON t.flag = u.flag",
	"SELECT t.id, u.id FROM t JOIN u ON t.a = u.x WHERE t.b < u.b",
	"SELECT t.id, u.id, t.x FROM t JOIN u ON t.x = u.x WHERE t.id + u.id > 3 AND u.flag",
	"SELECT u.s, t.x, count(*), sum(u.b), min(t.id) FROM t JOIN u ON t.a = u.a GROUP BY u.s, t.x",
	"SELECT count(*), max(u.x) FROM t JOIN u ON t.x = u.y WHERE t.a <> u.a",
}

// Float keys an INTEGER key can meet (1, -3, 2), the two zeros, and NaN,
// which equals every key.
var fuzzJoinFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -3, 2.5, 2, math.NaN()}

// fuzzJoinRows decodes one table from fuzz bytes, a row per byte pair: small
// domains on every key column so matches (and NaN cross products) are dense.
func fuzzJoinRows(data []byte) [][]any {
	var rows [][]any
	for i := 0; i+1 < len(data) && len(rows) < 64; i += 2 {
		k, v := data[i], data[i+1]
		rows = append(rows, []any{
			int64(len(rows)),
			int64(k&7) - 3,
			int64(v&15) - 8,
			fuzzJoinFloats[(k>>3)&7],
			fuzzJoinFloats[(v>>4)&7],
			genStrings[int(k>>6)%len(genStrings)],
			v&128 != 0,
		})
	}
	return rows
}

// FuzzHashJoinEquivalence holds the typed hash join (dense key IDs heading
// int32 row chains, NaN side list) to the nested-loop reference: same rows,
// same order, same float bits, or an error on both sides.
func FuzzHashJoinEquivalence(f *testing.F) {
	mixed := []byte{0x00, 0x10, 0x0b, 0x80, 0x13, 0x07, 0x1c, 0x91, 0x24, 0x33, 0x3d, 0xf0, 0x45, 0x08, 0x86, 0x77}
	nans := []byte{0x00, 0x00, 0x38, 0x70, 0x00, 0x81, 0x3b, 0x0f}
	for q := range fuzzJoinQueries {
		f.Add(uint8(q), uint8(q), mixed, nans)
	}
	f.Add(uint8(1), uint8(0), nans, nans)       // NaN on both sides
	f.Add(uint8(2), uint8(5), []byte{}, mixed)  // empty probe side
	f.Add(uint8(8), uint8(2), mixed, []byte{})  // empty build side
	f.Add(uint8(3), uint8(7), mixed[:2], mixed) // one probe row

	f.Fuzz(func(t *testing.T, qSel, shape uint8, left, right []byte) {
		tdb, err := NewFakeDB("t", TableSchema(), fuzzJoinRows(left), 1+int(shape&1), 8+int(shape>>1)%24)
		if err != nil {
			t.Fatal(err)
		}
		udb, err := NewFakeDB("u", TableSchema(), fuzzJoinRows(right), 1+int(shape>>6)%2, 8)
		if err != nil {
			t.Fatal(err)
		}
		db := NewMultiDB(tdb, udb)
		sql := fuzzJoinQueries[int(qSel)%len(fuzzJoinQueries)]
		// Two private ASTs: the reference canonicalizes its copy in place.
		refStmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		engStmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		ref, refErr := db.RunReference(refStmt.(*sqlparse.Select))
		res, engErr := sqlexec.RunSelectCtx(context.Background(), db, engStmt.(*sqlparse.Select))
		if (refErr != nil) != (engErr != nil) {
			t.Fatalf("%q: error mismatch\n  reference: %v\n  engine:    %v", sql, refErr, engErr)
		}
		if refErr == nil {
			compareResults(t, int(qSel), sql, 0, ref, res)
		}
	})
}
