package algos

import (
	"math"
	"sync"
	"testing"

	"verticadr/internal/parallel"
	"verticadr/internal/workload"
)

// fitAtDegree fits one GLM with the process-wide parallel degree pinned.
func fitAtDegree(t *testing.T, deg int, fit func() (*GLMModel, error)) *GLMModel {
	t.Helper()
	parallel.SetDefaultDegree(deg)
	defer parallel.SetDefaultDegree(0)
	m, err := fit()
	if err != nil {
		t.Fatalf("degree %d: %v", deg, err)
	}
	return m
}

func modelsBitIdentical(t *testing.T, deg int, a, b *GLMModel) {
	t.Helper()
	if len(a.Coefficients) != len(b.Coefficients) {
		t.Fatalf("degree %d: coefficient count %d vs %d", deg, len(a.Coefficients), len(b.Coefficients))
	}
	for i := range a.Coefficients {
		if math.Float64bits(a.Coefficients[i]) != math.Float64bits(b.Coefficients[i]) {
			t.Fatalf("degree %d: coefficient %d bits differ: %x vs %x",
				deg, i, math.Float64bits(a.Coefficients[i]), math.Float64bits(b.Coefficients[i]))
		}
	}
	if math.Float64bits(a.Deviance) != math.Float64bits(b.Deviance) {
		t.Fatalf("degree %d: deviance bits differ: %v vs %v", deg, a.Deviance, b.Deviance)
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		t.Fatalf("degree %d: convergence differs: %+v vs %+v", deg, a, b)
	}
}

// TestGLMBitIdenticalAcrossDegrees is the determinism property the parallel
// IRLS path promises: the same training data produces the same coefficient
// bits at every parallel degree, because chunk boundaries and the reduction
// tree depend only on the data layout.
func TestGLMBitIdenticalAcrossDegrees(t *testing.T) {
	c := cluster(t, 3)
	cases := []struct {
		name   string
		family Family
		fit    func() (*GLMModel, error)
	}{}
	lin := workload.GenLinear(21, 4000, 5, 0.05)
	lx := toDArray(t, c, lin.X, 6)
	ly := vecToDArray(t, c, lin.Y, 6)
	cases = append(cases, struct {
		name   string
		family Family
		fit    func() (*GLMModel, error)
	}{"gaussian", Gaussian, func() (*GLMModel, error) { return LM(lx, ly) }})
	log := workload.GenLogistic(22, 6000, 3)
	gx := toDArray(t, c, log.X, 6)
	gy := vecToDArray(t, c, log.Y, 6)
	cases = append(cases, struct {
		name   string
		family Family
		fit    func() (*GLMModel, error)
	}{"binomial", Binomial, func() (*GLMModel, error) {
		return GLM(gx, gy, GLMOpts{Family: Binomial})
	}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := fitAtDegree(t, 1, tc.fit)
			for _, deg := range []int{2, 3, 4, 8} {
				for rep := 0; rep < 2; rep++ {
					got := fitAtDegree(t, deg, tc.fit)
					modelsBitIdentical(t, deg, want, got)
				}
			}
		})
	}
}

// TestGLMParallelMatchesGroundTruth re-checks accuracy on the parallel path:
// determinism alone would also hold for a deterministic wrong answer.
func TestGLMParallelMatchesGroundTruth(t *testing.T) {
	parallel.SetDefaultDegree(4)
	defer parallel.SetDefaultDegree(0)
	c := cluster(t, 3)
	data := workload.GenLinear(31, 4000, 5, 0.01)
	x := toDArray(t, c, data.X, 6)
	y := vecToDArray(t, c, data.Y, 6)
	model, err := LM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Converged {
		t.Fatal("parallel LM did not converge")
	}
	for i, b := range data.Beta {
		if math.Abs(model.Coefficients[i]-b) > 0.01 {
			t.Fatalf("coef %d = %v, want %v", i, model.Coefficients[i], b)
		}
	}
}

// TestCrossValidateDeterministicAcrossDegrees pins the fold deviances bitwise.
func TestCrossValidateDeterministicAcrossDegrees(t *testing.T) {
	c := cluster(t, 2)
	data := workload.GenLinear(41, 1500, 3, 0.1)
	x := toDArray(t, c, data.X, 4)
	y := vecToDArray(t, c, data.Y, 4)
	run := func(deg int) *CVResult {
		parallel.SetDefaultDegree(deg)
		defer parallel.SetDefaultDegree(0)
		res, err := CrossValidate(x, y, GLMOpts{Family: Gaussian}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, deg := range []int{2, 4} {
		got := run(deg)
		for f := range want.FoldDeviance {
			if math.Float64bits(want.FoldDeviance[f]) != math.Float64bits(got.FoldDeviance[f]) {
				t.Fatalf("degree %d fold %d: %v vs %v", deg, f, want.FoldDeviance[f], got.FoldDeviance[f])
			}
		}
		if math.Float64bits(want.MeanDeviance) != math.Float64bits(got.MeanDeviance) {
			t.Fatalf("degree %d mean deviance: %v vs %v", deg, want.MeanDeviance, got.MeanDeviance)
		}
	}
}

func kmeansBitIdentical(t *testing.T, deg int, a, b *KmeansModel) {
	t.Helper()
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		t.Fatalf("degree %d: objective bits differ: %x vs %x", deg, math.Float64bits(a.Objective), math.Float64bits(b.Objective))
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		t.Fatalf("degree %d: convergence differs: %d/%v vs %d/%v", deg, a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	for k := range a.Centers {
		for j := range a.Centers[k] {
			if math.Float64bits(a.Centers[k][j]) != math.Float64bits(b.Centers[k][j]) {
				t.Fatalf("degree %d: center %d[%d] bits differ: %x vs %x", deg, k, j, math.Float64bits(a.Centers[k][j]), math.Float64bits(b.Centers[k][j]))
			}
		}
	}
}

// TestKmeansBitIdenticalAcrossDegrees is the GLM property for K-means: its
// partials fold through the same fixed tree over the same fixed chunks, so
// the centers, the objective and the convergence are the same bits at every
// degree and on every run — with random and k-means++ initialization.
func TestKmeansBitIdenticalAcrossDegrees(t *testing.T) {
	c := cluster(t, 3)
	data := workload.GenKmeans(23, 20000, 5, 6, 3.0)
	x := toDArray(t, c, data.Points, 6) // 6 partitions of two chunks each
	for _, plus := range []bool{false, true} {
		fit := func(deg int) *KmeansModel {
			parallel.SetDefaultDegree(deg)
			defer parallel.SetDefaultDegree(0)
			m, err := Kmeans(x, KmeansOpts{K: 6, Seed: 8, InitPlus: plus, MaxIter: 12, Tol: 1e-300})
			if err != nil {
				t.Fatalf("degree %d: %v", deg, err)
			}
			return m
		}
		want := fit(1)
		for _, deg := range []int{1, 2, 3, 4, 8} {
			for rep := 0; rep < 2; rep++ {
				kmeansBitIdentical(t, deg, want, fit(deg))
			}
		}
	}
}

// TestConcurrentFitsBitIdentical runs GLM and K-means fits side by side —
// their partial slabs and IRLS row scratch come from process-wide pools — and
// requires each to reproduce its sequential bits.
func TestConcurrentFitsBitIdentical(t *testing.T) {
	c := cluster(t, 2)
	logit := workload.GenLogistic(61, 6000, 3)
	gx, gy := toDArray(t, c, logit.X, 3), vecToDArray(t, c, logit.Y, 3)
	pts := workload.GenKmeans(62, 6000, 4, 5, 2.0)
	kx := toDArray(t, c, pts.Points, 3)
	glm := func() (*GLMModel, error) { return GLM(gx, gy, GLMOpts{Family: Binomial}) }
	km := func() (*KmeansModel, error) { return Kmeans(kx, KmeansOpts{K: 5, Seed: 2, MaxIter: 8}) }
	wantG, err := glm()
	if err != nil {
		t.Fatal(err)
	}
	wantK, err := km()
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	gots, gotk, errs := make([]*GLMModel, n), make([]*KmeansModel, n), make([]error, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) { defer wg.Done(); gots[i], errs[2*i] = glm() }(i)
		go func(i int) { defer wg.Done(); gotk[i], errs[2*i+1] = km() }(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[2*i] != nil || errs[2*i+1] != nil {
			t.Fatalf("fit %d: %v / %v", i, errs[2*i], errs[2*i+1])
		}
		modelsBitIdentical(t, 0, wantG, gots[i])
		kmeansBitIdentical(t, 0, wantK, gotk[i])
	}
}
