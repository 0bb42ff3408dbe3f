package plan_test

import (
	"sync"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/sqlparse"
)

// BenchmarkBindPlan is statement preparation alone, for the benchmark's
// point, score and read statements (benchmark/deploy.go) over 8,192-row
// events and events_in tables in two segments, k indexed as the benchmark
// indexes it: <stmt> is BindSelect on the template, then plan.Build — what
// a custom plan costs every execution, and what every execution cost before
// plans were cached — and cached/<stmt> what the server does for a generic
// plan: a cache lookup, the plan's Fits check against the tables, and Bind
// into its argument slots.
func BenchmarkBindPlan(b *testing.B) {
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "k", Type: colstore.TypeInt64},
		{Name: "dim_id", Type: colstore.TypeInt64}, {Name: "grp", Type: colstore.TypeInt64},
		{Name: "region", Type: colstore.TypeString},
		{Name: "x0", Type: colstore.TypeFloat64}, {Name: "x1", Type: colstore.TypeFloat64},
		{Name: "x2", Type: colstore.TypeFloat64}, {Name: "x3", Type: colstore.TypeFloat64},
	}
	rows := make([][]any, 8192)
	for i := range rows {
		id := int64(i)
		rows[i] = []any{id, id * 7, id % 100, id % 64, []string{"amer", "emea", "apac"}[i%3],
			float64(i), float64(i) / 2, float64(i) / 3, float64(i) / 4}
	}
	var tables []*difftest.FakeDB
	for _, name := range []string{"events", "events_in"} {
		db, err := difftest.NewFakeDB(name, schema, rows, 2, colstore.DefaultBlockRows)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.BuildIndexes("k"); err != nil {
			b.Fatal(err)
		}
		tables = append(tables, db)
	}
	db := difftest.NewMultiDB(tables...)
	for _, c := range []struct {
		name, sql string
		args      []any
	}{
		{"point", `SELECT x0, x1 FROM events WHERE k = ?`, []any{int64(7 * 4321)}},
		{"score", `SELECT GlmPredict(x0, x1, x2, x3 USING PARAMETERS model='m4') OVER (PARTITION BEST) FROM events WHERE id >= ? AND id < ?`, []any{int64(4000), int64(4256)}},
		{"read", `SELECT grp, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events_in WHERE id < ? GROUP BY grp ORDER BY grp`, []any{int64(2048)}},
	} {
		template, err := sqlparse.ParseSelect(c.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bound, err := sqlparse.BindSelect(template, c.args)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := plan.Build(bound, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		generic, err := plan.Build(template, db)
		if err != nil {
			b.Fatal(err)
		}
		cache := map[string]*plan.Plan{"1|" + c.sql: generic}
		var mu sync.Mutex
		b.Run("cached/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mu.Lock()
				p := cache["1|"+c.sql]
				mu.Unlock()
				if !p.Fits(db) {
					b.Fatal("the generic plan no longer fits")
				}
				if _, ok := p.Bind(c.args); !ok && !p.Custom {
					b.Fatal("the generic plan takes no arguments")
				}
			}
		})
	}
}
