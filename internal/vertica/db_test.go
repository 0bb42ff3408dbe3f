package vertica

import (
	"context"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
)

func openTestDB(t *testing.T, nodes int) *DB {
	t.Helper()
	db, err := Open(Config{Nodes: nodes, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustQuery(t *testing.T, db *DB, sql string) [][]any {
	t.Helper()
	res, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res.Rows()
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Nodes: 0}); err == nil {
		t.Fatal("0 nodes should fail")
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := openTestDB(t, 3)
	if _, err := db.QueryContext(context.Background(), `CREATE TABLE t (id INTEGER, x FLOAT, name VARCHAR) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(context.Background(), `INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'c')`); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT id, x, name FROM t ORDER BY id`)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0] != int64(1) || rows[2][2] != "c" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestInsertColumnReorder(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE t (a INTEGER, b VARCHAR)`)
	mustQuery(t, db, `INSERT INTO t (b, a) VALUES ('x', 7)`)
	rows := mustQuery(t, db, `SELECT a, b FROM t`)
	if rows[0][0] != int64(7) || rows[0][1] != "x" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestInsertNegativeLiterals(t *testing.T) {
	db := openTestDB(t, 1)
	mustQuery(t, db, `CREATE TABLE t (a INTEGER, b FLOAT)`)
	mustQuery(t, db, `INSERT INTO t VALUES (-5, -2.5)`)
	rows := mustQuery(t, db, `SELECT a, b FROM t`)
	if rows[0][0] != int64(-5) || rows[0][1] != -2.5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestInsertErrors(t *testing.T) {
	db := openTestDB(t, 1)
	mustQuery(t, db, `CREATE TABLE t (a INTEGER, b FLOAT)`)
	for _, q := range []string{
		`INSERT INTO missing VALUES (1, 2.0)`,
		`INSERT INTO t (a) VALUES (1)`,
		`INSERT INTO t (a, zz) VALUES (1, 2.0)`,
		`INSERT INTO t VALUES (1)`,
		`INSERT INTO t VALUES (1 + 1, 2.0)`,
		`INSERT INTO t VALUES ('str', 2.0)`,
	} {
		if _, err := db.QueryContext(context.Background(), q); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestWhereFilterAndPushdown(t *testing.T) {
	db := openTestDB(t, 4)
	mustQuery(t, db, `CREATE TABLE t (id INTEGER, x FLOAT)`)
	b := colstore.NewBatch(colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
	})
	for i := 0; i < 1000; i++ {
		_ = b.AppendRow(int64(i), float64(i)/10)
	}
	if err := db.Load("t", b); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT id FROM t WHERE id >= 990 ORDER BY id`)
	if len(rows) != 10 || rows[0][0] != int64(990) {
		t.Fatalf("pushdown rows = %v", rows)
	}
	// Complex predicate that cannot be pushed down.
	rows = mustQuery(t, db, `SELECT id FROM t WHERE id >= 995 AND x < 99.8 ORDER BY id DESC`)
	if len(rows) != 3 || rows[0][0] != int64(997) {
		t.Fatalf("residual rows = %v", rows)
	}
	// Mirrored literal-first comparison.
	rows = mustQuery(t, db, `SELECT id FROM t WHERE 998 < id`)
	if len(rows) != 1 || rows[0][0] != int64(999) {
		t.Fatalf("mirrored rows = %v", rows)
	}
}

func TestAggregates(t *testing.T) {
	db := openTestDB(t, 3)
	mustQuery(t, db, `CREATE TABLE sales (region VARCHAR, amount FLOAT, qty INTEGER)`)
	mustQuery(t, db, `INSERT INTO sales VALUES ('east', 10.0, 1), ('east', 20.0, 2), ('west', 5.0, 3)`)

	rows := mustQuery(t, db, `SELECT count(*), sum(amount), avg(amount), min(qty), max(qty) FROM sales`)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[0] != int64(3) || r[1] != 35.0 || r[2] != 35.0/3 || r[3] != int64(1) || r[4] != int64(3) {
		t.Fatalf("aggregates = %v", r)
	}

	rows = mustQuery(t, db, `SELECT region, sum(amount) AS total FROM sales GROUP BY region ORDER BY region`)
	if len(rows) != 2 || rows[0][0] != "east" || rows[0][1] != 30.0 || rows[1][1] != 5.0 {
		t.Fatalf("group rows = %v", rows)
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE e (x FLOAT)`)
	rows := mustQuery(t, db, `SELECT count(*), sum(x) FROM e`)
	if rows[0][0] != int64(0) || rows[0][1] != 0.0 {
		t.Fatalf("empty agg = %v", rows)
	}
	if _, err := db.QueryContext(context.Background(), `SELECT min(x) FROM e`); err == nil {
		t.Fatal("MIN over empty input should error")
	}
}

func TestAggregateErrors(t *testing.T) {
	db := openTestDB(t, 1)
	mustQuery(t, db, `CREATE TABLE t (a INTEGER, b VARCHAR)`)
	mustQuery(t, db, `INSERT INTO t VALUES (1, 'x')`)
	for _, q := range []string{
		`SELECT a, count(*) FROM t`,         // a not grouped
		`SELECT sum(b) FROM t`,              // non-numeric sum
		`SELECT * FROM t GROUP BY a`,        // star with grouping
		`SELECT upper(b) FROM t GROUP BY b`, // non-aggregate projection shape
		`SELECT sum(a, a) FROM t`,           // arity
		`SELECT min(*) FROM t`,              // MIN(*)
	} {
		if _, err := db.QueryContext(context.Background(), q); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestExpressionsAndScalarFuncs(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE t (a INTEGER, b FLOAT, s VARCHAR)`)
	mustQuery(t, db, `INSERT INTO t VALUES (4, -2.0, 'Hi')`)
	rows := mustQuery(t, db, `SELECT a + 1, a / 8, abs(b), sqrt(a), upper(s), lower(s), a * 2 - 1 FROM t`)
	r := rows[0]
	if r[0] != int64(5) || r[1] != 0.5 || r[2] != 2.0 || r[3] != 2.0 || r[4] != "HI" || r[5] != "hi" || r[6] != int64(7) {
		t.Fatalf("exprs = %v", r)
	}
}

func TestConstSelect(t *testing.T) {
	db := openTestDB(t, 1)
	rows := mustQuery(t, db, `SELECT 1 + 2 AS three, 'x', true`)
	if rows[0][0] != int64(3) || rows[0][1] != "x" || rows[0][2] != true {
		t.Fatalf("const select = %v", rows)
	}
	if _, err := db.QueryContext(context.Background(), `SELECT *`); err == nil {
		t.Fatal("star without FROM should fail")
	}
}

func TestOrderByLimitMultiKey(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE t (g INTEGER, v INTEGER)`)
	mustQuery(t, db, `INSERT INTO t VALUES (1, 9), (2, 1), (1, 3), (2, 7)`)
	rows := mustQuery(t, db, `SELECT g, v FROM t ORDER BY g ASC, v DESC LIMIT 3`)
	want := [][]int64{{1, 9}, {1, 3}, {2, 7}}
	for i, w := range want {
		if rows[i][0] != w[0] || rows[i][1] != w[1] {
			t.Fatalf("row %d = %v want %v", i, rows[i], w)
		}
	}
}

func TestSelectStar(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE t (a INTEGER, b VARCHAR)`)
	mustQuery(t, db, `INSERT INTO t VALUES (1, 'x')`)
	res, err := db.QueryContext(context.Background(), `SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema()) != 2 || res.Schema()[0].Name != "a" {
		t.Fatalf("star schema = %v", res.Schema())
	}
}

func TestDropTable(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE t (a INTEGER)`)
	mustQuery(t, db, `DROP TABLE t`)
	if _, err := db.QueryContext(context.Background(), `SELECT a FROM t`); err == nil {
		t.Fatal("query on dropped table should fail")
	}
	if _, err := db.QueryContext(context.Background(), `DROP TABLE t`); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestSegmentationPlacement(t *testing.T) {
	db := openTestDB(t, 4)
	mustQuery(t, db, `CREATE TABLE rr (a INTEGER) SEGMENTED BY ROUND ROBIN`)
	b := colstore.NewBatch(colstore.Schema{{Name: "a", Type: colstore.TypeInt64}})
	for i := 0; i < 100; i++ {
		_ = b.AppendRow(int64(i))
	}
	_ = db.Load("rr", b)
	sizes, err := db.SegmentSizes("rr")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sizes {
		if s != 25 {
			t.Fatalf("node %d has %d rows (sizes=%v)", i, s, sizes)
		}
	}
	total, _ := db.TableRows("rr")
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
}

func TestLoadAtBuildsSkew(t *testing.T) {
	db := openTestDB(t, 3)
	mustQuery(t, db, `CREATE TABLE sk (a INTEGER)`)
	b := colstore.NewBatch(colstore.Schema{{Name: "a", Type: colstore.TypeInt64}})
	for i := 0; i < 90; i++ {
		_ = b.AppendRow(int64(i))
	}
	if err := db.LoadAt("sk", 2, b); err != nil {
		t.Fatal(err)
	}
	sizes, _ := db.SegmentSizes("sk")
	if sizes[0] != 0 || sizes[1] != 0 || sizes[2] != 90 {
		t.Fatalf("sizes = %v", sizes)
	}
	if err := db.LoadAt("sk", 9, b); err == nil {
		t.Fatal("bad node should fail")
	}
}

func TestLoadColumns(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE f (x FLOAT, y FLOAT)`)
	if err := db.LoadColumns("f", [][]float64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT sum(x), sum(y) FROM f`)
	if rows[0][0] != 6.0 || rows[0][1] != 15.0 {
		t.Fatalf("rows = %v", rows)
	}
	if err := db.LoadColumns("f", [][]float64{{1}}); err == nil {
		t.Fatal("wrong column count should fail")
	}
	mustQuery(t, db, `CREATE TABLE m (s VARCHAR)`)
	if err := db.LoadColumns("m", [][]float64{{1}}); err == nil {
		t.Fatal("non-float table should fail")
	}
}

func TestCreateTableHashSegmentation(t *testing.T) {
	db := openTestDB(t, 4)
	mustQuery(t, db, `CREATE TABLE h (k VARCHAR, v INTEGER) SEGMENTED BY HASH(k)`)
	def, err := db.TableDef("h")
	if err != nil {
		t.Fatal(err)
	}
	if def.Seg.Kind != catalog.SegHash || def.Seg.Column != "k" {
		t.Fatalf("seg = %+v", def.Seg)
	}
	// Same key twice must land on the same node.
	mustQuery(t, db, `INSERT INTO h VALUES ('alpha', 1), ('alpha', 2)`)
	sizes, _ := db.SegmentSizes("h")
	nonzero := 0
	for _, s := range sizes {
		if s > 0 {
			nonzero++
			if s != 2 {
				t.Fatalf("expected both rows on one node: %v", sizes)
			}
		}
	}
	if nonzero != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestQueryParseError(t *testing.T) {
	db := openTestDB(t, 1)
	if _, err := db.QueryContext(context.Background(), `SELEKT 1`); err == nil {
		t.Fatal("parse error should propagate")
	}
}
