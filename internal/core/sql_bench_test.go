package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/colstore"
)

// The repository benchmark's join, read and score statements, verbatim but
// for their placeholders: read's bound here to the value the benchmark binds,
// every preloaded row of events_in; score's to a 256-id window.
const (
	joinSQL  = `SELECT d.grp, count(*) AS n, sum(events.x0) AS s FROM events JOIN dim d ON events.dim_id = d.id GROUP BY d.grp ORDER BY d.grp`
	readSQL  = `SELECT grp, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events_in WHERE id < %d GROUP BY grp ORDER BY grp`
	scoreSQL = `SELECT GlmPredict(x0, x1, x2, x3 USING PARAMETERS model='m4') OVER (PARTITION BEST) FROM events WHERE id >= %d AND id < %d`
)

// serveSession builds the repository benchmark's serve_single deployment for
// its executor statements — 4 nodes; events (eventsRows), events_in (inRows)
// and dim (10k rows) in the benchmark's shapes, each loaded as one batch; the
// benchmark's two indexes.
func serveSession(tb testing.TB, eventsRows, inRows int) *Session {
	tb.Helper()
	s, err := Start(Config{DBNodes: 4, DRWorkers: 4, InstancesPerWorker: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	const dimRows = 10_000
	for _, q := range []string{
		`CREATE TABLE events (id INTEGER, k INTEGER, dim_id INTEGER, grp INTEGER, region VARCHAR, x0 FLOAT, x1 FLOAT, x2 FLOAT, x3 FLOAT) SEGMENTED BY HASH(id)`,
		`CREATE TABLE events_in (id INTEGER, k INTEGER, dim_id INTEGER, grp INTEGER, region VARCHAR, x0 FLOAT, x1 FLOAT, x2 FLOAT, x3 FLOAT) SEGMENTED BY HASH(id)`,
		`CREATE TABLE dim (id INTEGER, grp INTEGER, w FLOAT) SEGMENTED BY HASH(id)`,
	} {
		if err := s.ExecContext(context.Background(), q); err != nil {
			tb.Fatal(err)
		}
	}
	x := uint64(7)
	rnd := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	load := func(table string, rows int, row func(i int) []any) {
		def, err := s.DB.TableDef(table)
		if err != nil {
			tb.Fatal(err)
		}
		b := colstore.NewBatchCap(def.Schema, rows)
		for i := 0; i < rows; i++ {
			if err := b.AppendRow(row(i)...); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Load(table, b); err != nil {
			tb.Fatal(err)
		}
	}
	regions := []string{"amer", "apac", "emea", "latam", "mena", "nordic", "oceania", "ssa"}
	events := func(n int) func(i int) []any {
		return func(i int) []any {
			r := []any{int64(i), int64(i) * 2654435761 % int64(n), int64(rnd() % dimRows), int64(rnd() % 64), regions[(i/5000)%len(regions)]}
			for j := 0; j < 4; j++ { // multiples of 2^-10, as the benchmark draws them
				r = append(r, math.Round((float64(rnd()%8192)-4096)/4)/1024)
			}
			return r
		}
	}
	load("events", eventsRows, events(eventsRows))
	load("events_in", inRows, events(inRows))
	load("dim", dimRows, func(i int) []any { return []any{int64(i), int64(i % 50), float64(rnd()) / (1 << 53)} })
	for _, q := range []string{`CREATE INDEX events_k ON events (k)`, `CREATE INDEX dim_id ON dim (id)`} {
		if err := s.ExecContext(context.Background(), q); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// benchSQL runs one statement b.N times over rows input rows and reports
// rows/s beside the allocations.
func benchSQL(b *testing.B, s *Session, sql string, rows int) {
	if _, err := s.QueryContext(context.Background(), sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryContext(context.Background(), sql); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkJoinSQL is the benchmark's join phase in process (join_rows_per_s
// counts events rows): 250k probe rows over 4 segments against a 10k-row
// build side, grouped by the build side's grp.
func BenchmarkJoinSQL(b *testing.B) {
	const eventsRows = 250_000
	benchSQL(b, serveSession(b, eventsRows, 50_000), joinSQL, eventsRows)
}

// BenchmarkReadSQL is the benchmark's read statement in process (read_p50_ms,
// without the writer beside it): a GROUP BY over the 50k rows of events_in
// that its WHERE keeps.
func BenchmarkReadSQL(b *testing.B) {
	const inRows = 50_000
	benchSQL(b, serveSession(b, 250_000, inRows), fmt.Sprintf(readSQL, inRows), inRows)
}

// BenchmarkScoreSQL is the benchmark's score statement in process
// (score_p50_ms without the wire): the serving model m4 over a 256-id window
// of events that moves every call, as the benchmark's windows do.
func BenchmarkScoreSQL(b *testing.B) {
	const eventsRows, window = 250_000, 256
	s := serveSession(b, eventsRows, 50_000)
	m4 := &algos.GLMModel{Family: algos.Binomial, Converged: true, Coefficients: []float64{0.1, 0.8, -0.6, 0.4, -0.2}}
	if err := s.DeployModel("m4", "bench", "serving model", m4); err != nil {
		b.Fatal(err)
	}
	score := func(i int) {
		lo := i * 7919 % (eventsRows - window)
		res, err := s.QueryContext(context.Background(), fmt.Sprintf(scoreSQL, lo, lo+window))
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != window {
			b.Fatalf("window at %d scored %d rows", lo, res.Len())
		}
	}
	score(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score(i + 1)
	}
}
