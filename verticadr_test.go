package verticadr_test

import (
	"context"
	"math"
	"testing"

	"verticadr"
)

// TestPublicAPIWorkflow exercises the facade exactly as the README's
// quickstart does: everything a downstream user touches must work through
// the exported surface alone.
func TestPublicAPIWorkflow(t *testing.T) {
	s, err := verticadr.Start(verticadr.Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 2, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.ExecContext(context.Background(), `CREATE TABLE t (a FLOAT, y FLOAT)`); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		a := float64(i%100)/50 - 1
		cols[0][i] = a
		cols[1][i] = 2 + 3*a
	}
	if err := s.DB.LoadColumns("t", cols); err != nil {
		t.Fatal(err)
	}

	x, _, err := s.DB2DArrayContext(context.Background(), "t", []string{"a"}, verticadr.PolicyLocality)
	if err != nil {
		t.Fatal(err)
	}
	y, _, err := s.DB2DArrayContext(context.Background(), "t", []string{"y"}, verticadr.PolicyLocality)
	if err != nil {
		t.Fatal(err)
	}
	model, err := verticadr.LM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Coefficients[0]-2) > 1e-6 || math.Abs(model.Coefficients[1]-3) > 1e-6 {
		t.Fatalf("coefficients = %v", model.Coefficients)
	}
	cv, err := verticadr.CrossValidate(x, y, verticadr.GLMOpts{Family: verticadr.Gaussian}, 4)
	if err != nil || cv.Folds != 4 {
		t.Fatalf("cv: %+v %v", cv, err)
	}
	if err := s.DeployModel("m", "test", "noiseless line", model); err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryContext(context.Background(), `SELECT GlmPredict(a USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t`)
	if err != nil || res.Len() != n {
		t.Fatalf("predict: %d rows, %v", res.Len(), err)
	}

	// K-means and random forest through the facade.
	km, err := verticadr.Kmeans(x, verticadr.KmeansOpts{K: 2, Seed: 1, MaxIter: 10})
	if err != nil || len(km.Centers) != 2 {
		t.Fatalf("kmeans: %+v %v", km, err)
	}
	rf, err := verticadr.RandomForest(x, y, verticadr.ForestOpts{Trees: 4, MaxDepth: 3, Seed: 1})
	if err != nil || len(rf.Trees) != 4 {
		t.Fatalf("forest: %v", err)
	}
	// Mat helper.
	m := verticadr.NewMat(2, 2)
	m.Set(1, 1, 5)
	if m.At(1, 1) != 5 {
		t.Fatal("mat facade")
	}
}
