package difftest

import (
	"context"
	"strings"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
)

// Golden EXPLAIN tests: deterministic tables, pinned output. The JSON form
// deliberately excludes timings and byte counts, so the full document —
// operators, access paths, estimated and actual row counts — is stable
// enough to compare verbatim. A drift here means the planner's choices or
// estimates changed, which must be a deliberate decision.

func goldenTable(t *testing.T) *FakeDB {
	t.Helper()
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
	}
	rows := make([][]any, 24)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 6), float64(i) / 2}
	}
	db, err := NewFakeDB("t", schema, rows, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func goldenJoinSide(t *testing.T) *FakeDB {
	t.Helper()
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "b", Type: colstore.TypeInt64},
	}
	rows := make([][]any, 10)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 3)}
	}
	db, err := NewFakeDB("u", schema, rows, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func runExplain(t *testing.T, db sqlexec.Database, sql string) string {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	ex, ok := stmt.(*sqlparse.Explain)
	if !ok {
		t.Fatalf("parse %q: got %T, want *Explain", sql, stmt)
	}
	res, err := sqlexec.RunExplainCtx(context.Background(), db, ex)
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	var lines []string
	for _, row := range res.Rows() {
		lines = append(lines, row[0].(string))
	}
	return strings.Join(lines, "\n")
}

func TestExplainGoldenIndexScan(t *testing.T) {
	db := goldenTable(t)
	if err := db.BuildIndexes("id"); err != nil {
		t.Fatal(err)
	}
	got := runExplain(t, db, "EXPLAIN (FORMAT JSON) SELECT a FROM t WHERE id = 7 ORDER BY a LIMIT 3")
	want := `{
  "op": "Limit",
  "detail": "LIMIT 3",
  "est_rows": 1,
  "actual_rows": 1,
  "children": [
    {
      "op": "Sort",
      "detail": "a",
      "est_rows": 1,
      "actual_rows": 1,
      "children": [
        {
          "op": "Project",
          "detail": "1 columns",
          "est_rows": 1,
          "actual_rows": 1,
          "children": [
            {
              "op": "IndexScan",
              "table": "t",
              "index": "id",
              "detail": "index(id) id = 7",
              "est_rows": 1,
              "actual_rows": 1
            }
          ]
        }
      ]
    }
  ]
}`
	if got != want {
		t.Fatalf("index-scan EXPLAIN drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The text form renders the same tree with est/actual inline.
	text := runExplain(t, db, "EXPLAIN SELECT a FROM t WHERE id = 7 ORDER BY a LIMIT 3")
	wantText := strings.Join([]string{
		"Limit [LIMIT 3] (est=1 actual=1)",
		"  -> Sort [a] (est=1 actual=1)",
		"    -> Project [1 columns] (est=1 actual=1)",
		"      -> IndexScan on t [index(id) id = 7] (est=1 actual=1)",
	}, "\n")
	if text != wantText {
		t.Fatalf("text EXPLAIN drifted:\n--- got ---\n%s\n--- want ---\n%s", text, wantText)
	}
}

func TestExplainGoldenHashJoin(t *testing.T) {
	db := NewMultiDB(goldenTable(t), goldenJoinSide(t))
	got := runExplain(t, db,
		"EXPLAIN (FORMAT JSON) SELECT t.a, u.b FROM t JOIN u ON t.a = u.b WHERE t.id = 20")
	want := `{
  "op": "Project",
  "detail": "2 columns",
  "est_rows": 1,
  "actual_rows": 3,
  "children": [
    {
      "op": "HashJoin",
      "detail": "t.a = u.b",
      "est_rows": 1,
      "actual_rows": 3,
      "children": [
        {
          "op": "SeqScan",
          "table": "t",
          "detail": "pushdown id = 20",
          "est_rows": 1,
          "actual_rows": 1
        },
        {
          "op": "SeqScan",
          "table": "u",
          "est_rows": 10,
          "actual_rows": 10
        }
      ]
    }
  ]
}`
	if got != want {
		t.Fatalf("hash-join EXPLAIN drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// shardStub stands in for the model manager's ShardInfoProvider.
type shardStub struct{ shards int }

func (s shardStub) ShardInfo(name string) (int, bool) {
	if name == "m" {
		return s.shards, true
	}
	return 0, false
}

// stubPredict is a minimal predict-shaped UDTF: one float output column,
// zero per input row. The golden test only needs the plan to execute.
type stubPredict struct{}

func (stubPredict) OutputSchema(in colstore.Schema, params udf.Params) (colstore.Schema, error) {
	if _, err := params.String("model"); err != nil {
		return nil, err
	}
	return colstore.Schema{{Name: "prediction", Type: colstore.TypeFloat64}}, nil
}

func (stubPredict) ProcessPartition(ctx *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	for {
		b, err := in.Next()
		if err != nil || b == nil {
			return err
		}
		preds := make([]float64, b.Len())
		ob := &colstore.Batch{
			Schema: colstore.Schema{{Name: "prediction", Type: colstore.TypeFloat64}},
			Cols:   []*colstore.Vector{colstore.FloatVector(preds)},
		}
		if err := out.Write(ob); err != nil {
			return err
		}
	}
}

func TestExplainGoldenDotProductJoin(t *testing.T) {
	db := goldenTable(t)
	db.Svcs = map[string]any{"models": shardStub{shards: 4}}
	if err := db.UDFs().Register("GlmPredict", func() udf.Transform { return stubPredict{} }); err != nil {
		t.Fatal(err)
	}
	got := runExplain(t, db,
		"EXPLAIN (FORMAT JSON) SELECT GlmPredict(x USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t")
	want := `{
  "op": "DotProductJoin",
  "table": "t",
  "detail": "GLMPREDICT, model sharded 4 ways",
  "est_rows": 24,
  "actual_rows": 24,
  "children": [
    {
      "op": "SeqScan",
      "table": "t",
      "est_rows": 24,
      "actual_rows": 24
    }
  ]
}`
	if got != want {
		t.Fatalf("dot-product-join EXPLAIN drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
