package bench

import (
	"context"
	"testing"
)

func newEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestRealTransferComparison(t *testing.T) {
	e := newEnv(t)
	if err := e.LoadFeatureTable(context.Background(), "t", 5000, 4, 1); err != nil {
		t.Fatal(err)
	}
	res, err := e.RealTransferComparison(context.Background(), "t", 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 5000 {
		t.Fatalf("rows = %d", res.Rows)
	}
	if res.ODBC <= 0 || res.VFT <= 0 {
		t.Fatalf("timings = %+v", res)
	}
	// Even at tiny scale the columnar path should beat per-row text framing.
	if res.VFT > res.ODBC {
		t.Logf("note: VFT (%v) slower than ODBC (%v) at toy scale", res.VFT, res.ODBC)
	}
}

func TestTable1AndFig10(t *testing.T) {
	e := newEnv(t)
	if err := e.Table1Check(); err != nil {
		t.Fatalf("Table 1 construct failed: %v", err)
	}
	if err := e.Fig10Check(context.Background()); err != nil {
		t.Fatalf("Fig 10 R_Models check failed: %v", err)
	}
}

func TestRealKmeansCompareAgrees(t *testing.T) {
	e := newEnv(t)
	res, err := e.RunRealKmeansCompare(600, 4, 3, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The two engines implement the same algorithm; with enough iterations
	// both converge to comparable objectives (different inits allow slack).
	ratio := res.DRObjective / res.SparkObjective
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("objectives disagree: DR=%v Spark=%v", res.DRObjective, res.SparkObjective)
	}
}

func TestSolverComparisonAgrees(t *testing.T) {
	e := newEnv(t)
	res, err := e.RunSolverComparison(2000, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Newton–Raphson (Distributed R) and QR (stock R) reach the same
	// least-squares answer (§7.3.1: "the final answer is the same").
	if res.MaxCoefDiff > 1e-6 {
		t.Fatalf("solvers disagree by %v", res.MaxCoefDiff)
	}
}

func TestTransferPolicyAblation(t *testing.T) {
	e := newEnv(t)
	res, err := e.RunTransferPolicyAblation(context.Background(), 900)
	if err != nil {
		t.Fatal(err)
	}
	// Locality mirrors the skew: everything lands in partition 0.
	if res.LocalitySizes[0] != 900 {
		t.Fatalf("locality sizes = %v", res.LocalitySizes)
	}
	for _, s := range res.LocalitySizes[1:] {
		if s != 0 {
			t.Fatalf("locality sizes = %v", res.LocalitySizes)
		}
	}
	// Uniform balances within 25% of even.
	even := 900 / len(res.UniformSizes)
	for i, s := range res.UniformSizes {
		if s < even*3/4 || s > even*5/4 {
			t.Fatalf("uniform partition %d = %d (sizes %v)", i, s, res.UniformSizes)
		}
	}
}

func TestRunChaosTransfer(t *testing.T) {
	e := newEnv(t)
	if err := e.LoadFeatureTable(context.Background(), "ct", 8000, 3, 2); err != nil {
		t.Fatal(err)
	}
	res, err := e.RunChaosTransfer(context.Background(), "ct", 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 8000 {
		t.Fatalf("rows = %d", res.Rows)
	}
	if res.Injected == 0 || res.Retransmits == 0 || res.DupChunks == 0 {
		t.Fatalf("chaos run did not engage recovery: %+v", res)
	}
}
