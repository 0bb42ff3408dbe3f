package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t WHERE x >= 1.5e3 -- comment\n")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	if texts[0] != "SELECT" || kinds[0] != TokKeyword {
		t.Fatalf("tok0 = %v %q", kinds[0], texts[0])
	}
	if texts[2] != "," || texts[3] != "it's" || kinds[3] != TokString {
		t.Fatalf("string literal: %q", texts[3])
	}
	if texts[8] != ">=" || texts[9] != "1.5e3" {
		t.Fatalf("got %v", texts)
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Fatal("missing EOF")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Fatal("bad character should fail")
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Fatal("unterminated quoted ident should fail")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE mytable (id INTEGER, x FLOAT, name VARCHAR, ok BOOLEAN) SEGMENTED BY HASH(id)`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("wrong type %T", stmt)
	}
	if ct.Name != "mytable" || len(ct.Cols) != 4 {
		t.Fatalf("ct = %+v", ct)
	}
	if ct.Cols[1].Name != "x" || ct.Cols[1].Type != "FLOAT" {
		t.Fatalf("col = %+v", ct.Cols[1])
	}
	if ct.Seg == nil || !ct.Seg.Hash || ct.Seg.Column != "id" {
		t.Fatalf("seg = %+v", ct.Seg)
	}
}

func TestParseCreateTableRoundRobin(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE t (a INT) SEGMENTED BY ROUND ROBIN;`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if ct.Seg == nil || ct.Seg.Hash {
		t.Fatalf("seg = %+v", ct.Seg)
	}
}

func TestParseDropInsert(t *testing.T) {
	stmt, err := Parse(`DROP TABLE t`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropTable).Name != "t" {
		t.Fatal("drop name")
	}
	stmt, err = Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	if ins.Rows[1][0].(*NumberLit).Int != 2 {
		t.Fatal("row value")
	}
}

func TestParseSelectFull(t *testing.T) {
	stmt, err := Parse(`SELECT a, b + 1 AS c, count(*) FROM t WHERE a > 5 AND NOT b = 2 GROUP BY a ORDER BY a DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if len(sel.Items) != 3 || sel.From != "t" {
		t.Fatalf("sel = %+v", sel)
	}
	if sel.Items[1].Alias != "c" {
		t.Fatalf("alias = %q", sel.Items[1].Alias)
	}
	fc := sel.Items[2].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Fatalf("count(*) = %+v", fc)
	}
	if sel.Where == nil || len(sel.GroupBy) != 1 || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc || sel.Limit != 10 {
		t.Fatalf("clauses = %+v", sel)
	}
}

func TestParseSelectStar(t *testing.T) {
	stmt, err := Parse(`SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if !sel.Items[0].Star {
		t.Fatal("star")
	}
}

func TestParsePaperFigure3Query(t *testing.T) {
	// Line 10 of Figure 3 in the paper.
	q := `SELECT glmPredict(A, B USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable2`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	fc := sel.Items[0].Expr.(*FuncCall)
	if fc.Name != "GLMPREDICT" || len(fc.Args) != 2 {
		t.Fatalf("fc = %+v", fc)
	}
	if fc.Params["model"].(*StringLit).Val != "rModel" {
		t.Fatalf("params = %+v", fc.Params)
	}
	if fc.Over == nil || !fc.Over.PartitionBest {
		t.Fatalf("over = %+v", fc.Over)
	}
}

// A USING PARAMETERS key names one parameter once: a second value for it —
// keys compare lower-cased — is an error, not a silent replacement of the
// first, which for two placeholders would leave one argument unbound.
func TestParseRejectsDuplicateParameter(t *testing.T) {
	for _, params := range []string{`model='a', model='b'`, `model=?, model=?`, `MODEL='a', user='u', model='b'`} {
		q := `SELECT GlmPredict(a, b USING PARAMETERS ` + params + `) OVER (PARTITION BEST) FROM t`
		if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), `"model" twice`) {
			t.Fatalf("%s: err = %v, want the duplicate named", params, err)
		}
	}
	if _, err := Parse(`SELECT GlmPredict(a, b USING PARAMETERS model=?, user=?) OVER (PARTITION BEST) FROM t`); err != nil {
		t.Fatal(err)
	}
}

func TestParsePaperFigure4Query(t *testing.T) {
	// The ExportToDistributedR invocation of Figure 4 (simplified args).
	q := `SELECT ExportToDistributedR(a, b USING PARAMETERS hosts='h1:9090,h2:9090', psize=1000, policy='locality') OVER (PARTITION BEST) FROM mytable`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	fc := stmt.(*Select).Items[0].Expr.(*FuncCall)
	if fc.Name != "EXPORTTODISTRIBUTEDR" {
		t.Fatalf("name = %q", fc.Name)
	}
	if fc.Params["psize"].(*NumberLit).Int != 1000 {
		t.Fatalf("psize = %+v", fc.Params["psize"])
	}
}

func TestParseOverPartitionBy(t *testing.T) {
	stmt, err := Parse(`SELECT f(x) OVER (PARTITION BY a, b) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	fc := stmt.(*Select).Items[0].Expr.(*FuncCall)
	if fc.Over == nil || fc.Over.PartitionBest || len(fc.Over.PartitionBy) != 2 {
		t.Fatalf("over = %+v", fc.Over)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	stmt, err := Parse(`SELECT 1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	e := stmt.(*Select).Items[0].Expr.(*Binary)
	if e.Op != "+" {
		t.Fatalf("top op %q", e.Op)
	}
	if e.R.(*Binary).Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
	stmt, _ = Parse(`SELECT a OR b AND c`)
	o := stmt.(*Select).Items[0].Expr.(*Binary)
	if o.Op != "OR" || o.R.(*Binary).Op != "AND" {
		t.Fatal("AND should bind tighter than OR")
	}
}

func TestParseUnary(t *testing.T) {
	stmt, err := Parse(`SELECT -x, NOT TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	items := stmt.(*Select).Items
	if items[0].Expr.(*Unary).Op != "-" {
		t.Fatal("unary minus")
	}
	if items[1].Expr.(*Unary).Op != "NOT" {
		t.Fatal("not")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"CREATE TABLE (a INT)",
		"CREATE TABLE t (a INT) SEGMENTED BY MAGIC",
		"INSERT INTO t VALUES 1, 2",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT f(x) OVER (PARTITION WORST) FROM t",
		"SELECT a FROM t extra garbage following the query (",
		"DROP t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("expected parse error for %q", q)
		}
	}
}

func TestParseNumberForms(t *testing.T) {
	stmt, err := Parse(`SELECT 42, 3.14, 1e3, 2.5E-2`)
	if err != nil {
		t.Fatal(err)
	}
	items := stmt.(*Select).Items
	if n := items[0].Expr.(*NumberLit); !n.IsInt || n.Int != 42 {
		t.Fatalf("int lit %+v", n)
	}
	if n := items[1].Expr.(*NumberLit); n.IsInt || n.Float != 3.14 {
		t.Fatalf("float lit %+v", n)
	}
	if n := items[2].Expr.(*NumberLit); n.Float != 1000 {
		t.Fatalf("exp lit %+v", n)
	}
	if n := items[3].Expr.(*NumberLit); n.Float != 0.025 {
		t.Fatalf("exp lit %+v", n)
	}
}

func TestExprString(t *testing.T) {
	stmt, err := Parse(`SELECT (a + 1) * 2 = b AND f(x USING PARAMETERS m='v') OVER (PARTITION BEST)`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*Select).Items[0].Expr.String()
	for _, want := range []string{"a", "+", "*", "=", "AND", "F(", "PARTITION BEST"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// Property: the lexer never panics and either errors or ends with EOF.
func TestQuickLexTotal(t *testing.T) {
	f := func(s string) bool {
		toks, err := Lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse is total (no panics) on arbitrary input.
func TestQuickParseTotal(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseCreateDropIndex(t *testing.T) {
	stmt, err := Parse(`CREATE INDEX idx_a ON t (a)`)
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := stmt.(*CreateIndex)
	if !ok || ci.Name != "idx_a" || ci.Table != "t" || ci.Column != "a" {
		t.Fatalf("got %#v", stmt)
	}
	stmt, err = Parse(`DROP INDEX idx_a;`)
	if err != nil {
		t.Fatal(err)
	}
	if di, ok := stmt.(*DropIndex); !ok || di.Name != "idx_a" {
		t.Fatalf("got %#v", stmt)
	}
	for _, bad := range []string{
		"CREATE INDEX ON t (a)",
		"CREATE INDEX i t (a)",
		"CREATE INDEX i ON t a",
		"CREATE INDEX i ON t (a, b)",
		"DROP INDEX",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse(`EXPLAIN SELECT a FROM t WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*Explain)
	if !ok || ex.FormatJSON || ex.Stmt == nil || ex.Stmt.From != "t" {
		t.Fatalf("got %#v", stmt)
	}
	stmt, err = Parse(`EXPLAIN (FORMAT JSON) SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	ex = stmt.(*Explain)
	if !ex.FormatJSON {
		t.Fatal("FORMAT JSON not recognized")
	}
	if _, err := Parse(`EXPLAIN (FORMAT json) SELECT 1`); err != nil {
		t.Fatalf("json should match case-insensitively: %v", err)
	}
	for _, bad := range []string{
		"EXPLAIN DROP TABLE t",
		"EXPLAIN (FORMAT XML) SELECT 1",
		"EXPLAIN (JSON) SELECT 1",
		"EXPLAIN",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse(`SELECT t.a, u.b FROM t JOIN u ON t.id = u.id WHERE t.a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if sel.From != "t" || len(sel.Joins) != 1 || sel.Joins[0].Table != "u" {
		t.Fatalf("sel = %+v", sel)
	}
	on := sel.Joins[0].On.(*Binary)
	if on.Op != "=" || on.L.(*ColRef).Table != "t" || on.R.(*ColRef).Name != "id" {
		t.Fatalf("on = %+v", on)
	}
	if c := sel.Items[1].Expr.(*ColRef); c.Table != "u" || c.Name != "b" {
		t.Fatalf("item = %+v", c)
	}

	stmt, err = Parse(`SELECT x.a FROM t AS x JOIN t y ON x.id = y.id GROUP BY x.a ORDER BY x.a DESC`)
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*Select)
	if sel.FromAlias != "x" || sel.Joins[0].Alias != "y" {
		t.Fatalf("aliases = %q %q", sel.FromAlias, sel.Joins[0].Alias)
	}
	if sel.GroupBy[0] != "x.a" || sel.OrderBy[0].Col != "x.a" {
		t.Fatalf("dotted names: %v %v", sel.GroupBy, sel.OrderBy)
	}
	for _, bad := range []string{
		"SELECT a FROM t JOIN u",
		"SELECT a FROM t JOIN ON t.id = u.id",
		"SELECT a FROM t JOIN u ON",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestParseProfile(t *testing.T) {
	stmt, err := Parse(`PROFILE SELECT a FROM t WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*Select)
	if !ok || !sel.Profile {
		t.Fatalf("got %#v, want Select with Profile", stmt)
	}
	if sel.From != "t" || sel.Where == nil {
		t.Fatalf("PROFILE changed the parsed SELECT: %#v", sel)
	}
	if s, err := Parse(`SELECT a FROM t`); err != nil || s.(*Select).Profile {
		t.Fatalf("plain SELECT must not be profiled (err=%v)", err)
	}
	if _, err := Parse(`PROFILE CREATE TABLE t (a FLOAT)`); err == nil {
		t.Fatal("PROFILE over non-SELECT must fail")
	}
}
