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
