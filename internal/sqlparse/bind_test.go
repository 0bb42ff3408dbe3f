package sqlparse

import (
	"strings"
	"testing"
)

func mustSelect(t *testing.T, sql string) *Select {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return stmt.(*Select)
}

func TestPlaceholderParseAndCount(t *testing.T) {
	sel := mustSelect(t, `SELECT a, ? AS p FROM t WHERE a > ? AND b = ? LIMIT 3`)
	if sel.NumParams != 3 {
		t.Fatalf("NumParams = %d, want 3", sel.NumParams)
	}
	// Canonical rendering keeps the markers, and re-parsing is a fixpoint.
	s := sel.String()
	if !strings.Contains(s, "?") {
		t.Fatalf("String() lost placeholders: %s", s)
	}
	again := mustSelect(t, s)
	if again.String() != s {
		t.Fatalf("fixpoint broken:\n  %s\n  %s", s, again.String())
	}
	if again.NumParams != 3 {
		t.Fatalf("reparsed NumParams = %d", again.NumParams)
	}
}

func TestPlaceholderOnlyInSelect(t *testing.T) {
	if _, err := Parse(`INSERT INTO t VALUES (?)`); err == nil {
		t.Fatal("placeholder in INSERT should be rejected")
	}
}

func TestBindSelect(t *testing.T) {
	sel := mustSelect(t, `SELECT a + ? FROM t WHERE s = ? AND ok = ? ORDER BY a LIMIT 5`)
	bound, err := BindSelect(sel, []any{1.5, "x''y", true})
	if err != nil {
		t.Fatal(err)
	}
	if bound.NumParams != 0 {
		t.Fatalf("bound statement still reports %d params", bound.NumParams)
	}
	got := bound.String()
	want := `SELECT (a + 1.5) FROM t WHERE ((s = 'x''''y') AND (ok = TRUE)) ORDER BY a LIMIT 5`
	if got != want {
		t.Fatalf("bound render:\n  got  %s\n  want %s", got, want)
	}
	// Template unchanged: binding again with other args yields other SQL.
	b2, err := BindSelect(sel, []any{int64(2), "z", false})
	if err != nil {
		t.Fatal(err)
	}
	if b2.String() == got {
		t.Fatal("second bind produced identical SQL; template was mutated")
	}
	if !strings.Contains(sel.String(), "?") {
		t.Fatal("template lost its placeholders after binding")
	}
}

func TestBindSelectErrors(t *testing.T) {
	sel := mustSelect(t, `SELECT a FROM t WHERE a = ?`)
	if _, err := BindSelect(sel, nil); err == nil {
		t.Fatal("arity mismatch not detected")
	}
	if _, err := BindSelect(sel, []any{[]byte("no")}); err == nil {
		t.Fatal("unsupported type not detected")
	}
	if _, err := BindSelect(sel, []any{1, 2}); err == nil {
		t.Fatal("too many args not detected")
	}
}

func TestBindSelectParamsInUDTFCall(t *testing.T) {
	sel := mustSelect(t, `SELECT GlmPredict(a, b USING PARAMETERS model=?) OVER (PARTITION BEST) FROM t`)
	if sel.NumParams != 1 {
		t.Fatalf("NumParams = %d", sel.NumParams)
	}
	bound, err := BindSelect(sel, []any{"m1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bound.String(), "model='m1'") {
		t.Fatalf("parameter not bound: %s", bound.String())
	}
}

// Literal reads a constant as BindSelect binds one: a literal, or unary
// minus over a number, however deep; nothing else is a literal.
func TestLiteral(t *testing.T) {
	for src, want := range map[string]any{
		"42": int64(42), "-42": int64(-42), "- -7": int64(7), "-1.5": -1.5, "'hi'": "hi", "FALSE": false,
	} {
		if v, ok := Literal(mustSelect(t, "SELECT "+src).Items[0].Expr); !ok || v != want {
			t.Fatalf("%s: %#v, %v; want %#v", src, v, ok, want)
		}
	}
	for _, src := range []string{"1 + 1", "-'x'", "-TRUE", "NOT TRUE", "a", "?"} {
		if v, ok := Literal(mustSelect(t, "SELECT "+src).Items[0].Expr); ok {
			t.Fatalf("%s is no literal, read as %#v", src, v)
		}
	}
}

func TestParseSelectRequiresSelect(t *testing.T) {
	if sel, err := ParseSelect(`SELECT a FROM t WHERE a = ?`); err != nil || sel.NumParams != 1 {
		t.Fatalf("%v, %v", sel, err)
	}
	for _, sql := range []string{`DROP TABLE t`, `EXPLAIN SELECT a FROM t`, `SELECT`} {
		if _, err := ParseSelect(sql); err == nil {
			t.Fatalf("%q parsed as a SELECT", sql)
		}
	}
}
