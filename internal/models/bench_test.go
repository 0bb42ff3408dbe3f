package models

import (
	"context"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/colstore"
	"verticadr/internal/vertica"
)

func benchPredictDB(b *testing.B, rows int) (*vertica.DB, *Manager) {
	b.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: 4, BlockRows: 2048, UDFInstancesPerNode: 2})
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := NewManager(context.Background(), db)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `CREATE TABLE bp (a FLOAT, b FLOAT)`); err != nil {
		b.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "a", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeFloat64},
	}
	batch := colstore.NewBatch(schema)
	for i := 0; i < rows; i++ {
		_ = batch.AppendRow(float64(i)*0.01, float64(i)*-0.02)
	}
	if err := db.Load("bp", batch); err != nil {
		b.Fatal(err)
	}
	return db, mgr
}

// BenchmarkGlmPredictSQL drives the full SQL prediction path — scan,
// partitioning, vectorized block scoring through the pooled writer, merge —
// over 100k rows per iteration.
func BenchmarkGlmPredictSQL(b *testing.B) {
	const rows = 100_000
	db, mgr := benchPredictDB(b, rows)
	if err := mgr.Deploy(context.Background(), "m", "bench", "", &algos.GLMModel{
		Family: algos.Gaussian, Coefficients: []float64{1, 2, -0.5},
	}); err != nil {
		b.Fatal(err)
	}
	q := `SELECT GlmPredict(a, b USING PARAMETERS model='m') OVER (PARTITION BEST) FROM bp`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != rows {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkKmeansPredictSQL is the same path through the integer-output
// scorer.
func BenchmarkKmeansPredictSQL(b *testing.B) {
	const rows = 100_000
	db, mgr := benchPredictDB(b, rows)
	if err := mgr.Deploy(context.Background(), "km", "bench", "", &algos.KmeansModel{
		K: 2, Centers: [][]float64{{0, 0}, {500, -1000}},
	}); err != nil {
		b.Fatal(err)
	}
	q := `SELECT KmeansPredict(a, b USING PARAMETERS model='km') OVER (PARTITION BEST) FROM bp`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != rows {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// predict8SQL is the repository benchmark's PREDICT statement
// (benchmark/phases.go, paper_pipeline).
const predict8SQL = `SELECT GlmPredict(f0, f1, f2, f3, f4, f5, f6, f7 USING PARAMETERS model='m') OVER (PARTITION BEST) FROM pts`

// predict8DB builds what that statement runs over, as the benchmark does:
// `pts` with id + 8 FLOAT features segmented by HASH(id) over 4 nodes,
// default block size and instance count, and a deployed 8-feature GLM.
func predict8DB(tb testing.TB, rows int) *vertica.DB {
	tb.Helper()
	const feats = 8
	db, err := vertica.Open(vertica.Config{Nodes: 4})
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := NewManager(context.Background(), db)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.ExecContext(context.Background(),
		`CREATE TABLE pts (id INTEGER, f0 FLOAT, f1 FLOAT, f2 FLOAT, f3 FLOAT, f4 FLOAT, f5 FLOAT, f6 FLOAT, f7 FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		tb.Fatal(err)
	}
	def, err := db.TableDef("pts")
	if err != nil {
		tb.Fatal(err)
	}
	batch := colstore.NewBatchCap(def.Schema, rows)
	x := uint64(1)
	for i := 0; i < rows; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		for j := 1; j <= feats; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			batch.Cols[j].Floats = append(batch.Cols[j].Floats, float64(x>>11)/(1<<53))
		}
	}
	if err := db.Load("pts", batch); err != nil {
		tb.Fatal(err)
	}
	if err := mgr.Deploy(context.Background(), "m", "bench", "", &algos.GLMModel{
		Family: algos.Binomial, Coefficients: []float64{0.1, 1, -1, 0.5, -0.5, 0.25, -0.25, 2, -2},
	}); err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkPredictSQL8 mirrors the repository benchmark's PREDICT phase at
// paper_pipeline's size (500k rows), so predict_rows_per_s can be iterated
// on in seconds.
func BenchmarkPredictSQL8(b *testing.B) {
	const rows = 500_000
	db := predict8DB(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), predict8SQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != rows {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
