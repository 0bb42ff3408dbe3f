package vertica

import (
	"strings"
	"testing"
)

func TestLoadCSV(t *testing.T) {
	db := openTestDB(t, 2)
	mustQuery(t, db, `CREATE TABLE t (id INTEGER, x FLOAT, s VARCHAR, ok BOOLEAN)`)
	csvData := "id,x,s,ok\n1,1.5,hello,true\n2,-2.5,\"with,comma\",f\n3,0,z,1\n"
	n, err := db.LoadCSV("t", strings.NewReader(csvData), true)
	if err != nil || n != 3 {
		t.Fatalf("loaded %d, %v", n, err)
	}
	rows := mustQuery(t, db, `SELECT id, x, s, ok FROM t ORDER BY id`)
	if rows[1][2] != "with,comma" || rows[1][3] != false || rows[2][3] != true {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := openTestDB(t, 1)
	mustQuery(t, db, `CREATE TABLE t (id INTEGER, ok BOOLEAN)`)
	cases := []string{
		"xx,true\n",   // bad int
		"1,perhaps\n", // bad bool
		"1\n",         // wrong arity
	}
	for _, c := range cases {
		if _, err := db.LoadCSV("t", strings.NewReader(c), false); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
	if _, err := db.LoadCSV("missing", strings.NewReader(""), false); err == nil {
		t.Fatal("missing table should fail")
	}
}

func TestLoadCSVFloatTableWithBadFloat(t *testing.T) {
	db := openTestDB(t, 1)
	mustQuery(t, db, `CREATE TABLE f (x FLOAT)`)
	if _, err := db.LoadCSV("f", strings.NewReader("not-a-number\n"), false); err == nil {
		t.Fatal("bad float should fail")
	}
}
