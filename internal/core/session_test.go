package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/vft"
	"verticadr/internal/workload"
)

func startTest(t *testing.T, cfg Config) *Session {
	t.Helper()
	if cfg.BlockRows == 0 {
		cfg.BlockRows = 128
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func loadRegressionTable(t *testing.T, s *Session, name string, rows, feats int, seed int64) []float64 {
	t.Helper()
	featCols := make([]string, feats)
	ddl := fmt.Sprintf("CREATE TABLE %s (", name)
	for i := range featCols {
		featCols[i] = fmt.Sprintf("x%d", i)
		ddl += featCols[i] + " FLOAT, "
	}
	ddl += "y FLOAT)"
	if err := s.ExecContext(context.Background(), ddl); err != nil {
		t.Fatal(err)
	}
	spec := workload.TableSpec{Name: name, FeatCols: featCols, RespCol: "y", Rows: rows, Seed: seed}
	cols, _, beta := spec.Gen()
	if err := s.DB.LoadColumns(name, cols); err != nil {
		t.Fatal(err)
	}
	return beta
}

func TestStartDefaults(t *testing.T) {
	s := startTest(t, Config{})
	if s.DB.NumNodes() != 4 || s.DR.NumWorkers() != 4 {
		t.Fatalf("defaults: db=%d dr=%d", s.DB.NumNodes(), s.DR.NumWorkers())
	}
}

func TestFigure3Workflow(t *testing.T) {
	// The full script of Figure 3: load features via db2darray, fit a GLM,
	// cross-validate, inspect coefficients, deploy, and predict in-database.
	s := startTest(t, Config{DBNodes: 3, DRWorkers: 3, InstancesPerWorker: 2})
	beta := loadRegressionTable(t, s, "mytable", 3000, 3, 11)

	// Line 5: data <- db2darray("mytable", ...).
	x, stats, err := s.DB2DArrayContext(context.Background(), "mytable", []string{"x0", "x1", "x2"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Policy != vft.PolicyLocality {
		t.Fatalf("equal node counts should default to locality, got %q", stats.Policy)
	}
	yArr, _, err := s.DB2DArrayContext(context.Background(), "mytable", []string{"y"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 3000 || yArr.Rows() != 3000 {
		t.Fatalf("loaded rows %d / %d", x.Rows(), yArr.Rows())
	}

	// Line 6: model <- hpdglm(...). Gaussian family = linear regression.
	model, err := algos.GLM(x, yArr, algos.GLMOpts{Family: algos.Gaussian})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range beta {
		if math.Abs(model.Coefficients[i]-b) > 0.05 {
			t.Fatalf("coef %d = %v want %v", i, model.Coefficients[i], b)
		}
	}

	// Line 7: cv.hpdglm(...).
	cv, err := algos.CrossValidate(x, yArr, algos.GLMOpts{Family: algos.Gaussian}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Folds != 4 {
		t.Fatalf("cv = %+v", cv)
	}

	// Line 9: deploy.model(model, 'rModel').
	if err := s.DeployModel("rModel", "tester", "forecasting", model); err != nil {
		t.Fatal(err)
	}

	// Lines 10-11: in-database prediction over a second table.
	loadRegressionTable(t, s, "mytable2", 500, 3, 11) // same seed = same beta
	res, err := s.QueryContext(context.Background(), `SELECT GlmPredict(x0, x1, x2 USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 500 {
		t.Fatalf("predicted %d rows", res.Len())
	}
	// Predictions should be close to the stored y (noise 0.1).
	ys, err := s.QueryContext(context.Background(), `SELECT y FROM mytable2`)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, wantSum := 0.0, 0.0
	for i, r := range res.Rows() {
		gotSum += r[0].(float64)
		wantSum += ys.Rows()[i][0].(float64)
	}
	if math.Abs(gotSum-wantSum)/500 > 0.2 {
		t.Fatalf("mean prediction %v vs mean y %v", gotSum/500, wantSum/500)
	}
}

func TestKmeansWorkflowWithUniformPolicy(t *testing.T) {
	s := startTest(t, Config{DBNodes: 2, DRWorkers: 4, InstancesPerWorker: 2})
	if err := s.ExecContext(context.Background(), `CREATE TABLE pts (a FLOAT, b FLOAT)`); err != nil {
		t.Fatal(err)
	}
	data := workload.GenKmeans(5, 1000, 2, 3, 0.2)
	cols := [][]float64{make([]float64, 1000), make([]float64, 1000)}
	for i, p := range data.Points {
		cols[0][i], cols[1][i] = p[0], p[1]
	}
	if err := s.DB.LoadColumns("pts", cols); err != nil {
		t.Fatal(err)
	}
	// Unequal node counts: default policy must be uniform.
	x, stats, err := s.DB2DArrayContext(context.Background(), "pts", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Policy != vft.PolicyUniform {
		t.Fatalf("policy = %q", stats.Policy)
	}
	km, err := algos.Kmeans(x, algos.KmeansOpts{K: 3, Seed: 2, InitPlus: true, MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeployModel("km", "tester", "clustering", km); err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1000 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestODBCBaselineLoad(t *testing.T) {
	s := startTest(t, Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 2})
	loadRegressionTable(t, s, "t", 400, 2, 3)
	frame, err := s.LoadODBCContext(context.Background(), "t", nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Rows() != 400 || frame.NPartitions() != 8 {
		t.Fatalf("odbc frame rows=%d parts=%d", frame.Rows(), frame.NPartitions())
	}
}

func TestYARNIntegration(t *testing.T) {
	s := startTest(t, Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 2, UseYARN: true})
	if s.RM == nil {
		t.Fatal("yarn not started")
	}
	u := s.RM.Usage()
	// Database holds half of each node long-term; DR session holds its
	// per-worker containers.
	if u.QueueCores["db"] != 24 { // 2 nodes × 12 cores
		t.Fatalf("db cores = %d", u.QueueCores["db"])
	}
	if u.QueueCores["analytics"] != 4 { // 2 workers × 2 instances
		t.Fatalf("analytics cores = %d", u.QueueCores["analytics"])
	}
	// Closing the session returns every container.
	s.Close()
	u = s.RM.Usage()
	if u.Outstanding != 0 {
		t.Fatalf("containers leaked: %+v", u)
	}
}

func TestYARNRefusesOversizedSession(t *testing.T) {
	_, err := Start(Config{
		DBNodes: 2, DRWorkers: 2,
		InstancesPerWorker: 50, // 50 cores per worker > analytics share
		UseYARN:            true,
		CoresPerNode:       24,
	})
	if err == nil {
		t.Fatal("oversized session should be refused by the resource manager")
	}
}

func TestDB2DArrayErrors(t *testing.T) {
	s := startTest(t, Config{DBNodes: 2, DRWorkers: 2})
	if _, _, err := s.DB2DArrayContext(context.Background(), "missing", nil, ""); err == nil {
		t.Fatal("missing table should fail")
	}
	loadRegressionTable(t, s, "t", 50, 1, 1)
	if _, _, err := s.DB2DArrayContext(context.Background(), "t", nil, "bogus"); err == nil {
		t.Fatal("bad policy should fail")
	}
}
