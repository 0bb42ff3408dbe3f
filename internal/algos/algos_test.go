package algos

import (
	"math"
	"testing"
	"testing/quick"

	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/workload"
)

func cluster(t *testing.T, workers int) *dr.Cluster {
	t.Helper()
	c, err := dr.Start(dr.Config{Workers: workers, InstancesPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func toDArray(t *testing.T, c *dr.Cluster, rows [][]float64, nparts int) *darray.DArray {
	t.Helper()
	m := darray.NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	a, err := darray.FromMat(c, m, nparts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func vecToDArray(t *testing.T, c *dr.Cluster, vals []float64, nparts int) *darray.DArray {
	t.Helper()
	m := darray.NewMat(len(vals), 1)
	copy(m.Data, vals)
	a, err := darray.FromMat(c, m, nparts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestKmeansRecoversPlantedClusters(t *testing.T) {
	c := cluster(t, 3)
	data := workload.GenKmeans(1, 600, 4, 3, 0.2)
	x := toDArray(t, c, data.Points, 6)
	model, err := Kmeans(x, KmeansOpts{K: 3, Seed: 5, InitPlus: true, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Centers) != 3 {
		t.Fatalf("centers = %d", len(model.Centers))
	}
	if !model.Converged {
		t.Fatal("kmeans did not converge on easy data")
	}
	// Every planted center must be close to some fitted center.
	for _, pc := range data.Centers {
		best := math.Inf(1)
		for _, fc := range model.Centers {
			d := 0.0
			for j := range pc {
				d += (pc[j] - fc[j]) * (pc[j] - fc[j])
			}
			if d < best {
				best = d
			}
		}
		if math.Sqrt(best) > 1.0 {
			t.Fatalf("planted center not recovered (dist %v)", math.Sqrt(best))
		}
	}
	// Assign maps points to their planted cluster consistently.
	agreement := map[[2]int]int{}
	for i, p := range data.Points {
		agreement[[2]int{data.Labels[i], model.Assign(p)}]++
	}
	// For each planted label, its dominant fitted label should cover ~all.
	byLabel := map[int]int{}
	dominant := map[int]int{}
	for k, n := range agreement {
		byLabel[k[0]] += n
		if n > dominant[k[0]] {
			dominant[k[0]] = n
		}
	}
	for l, total := range byLabel {
		if float64(dominant[l]) < 0.95*float64(total) {
			t.Fatalf("label %d poorly recovered: %d/%d", l, dominant[l], total)
		}
	}
}

func TestKmeansObjectiveMonotone(t *testing.T) {
	// Run with increasing MaxIter: the objective must not increase.
	c := cluster(t, 2)
	data := workload.GenKmeans(2, 300, 3, 4, 2.0)
	x := toDArray(t, c, data.Points, 4)
	var prev float64 = math.Inf(1)
	for _, iters := range []int{1, 2, 4, 8, 16} {
		m, err := Kmeans(x, KmeansOpts{K: 4, Seed: 9, MaxIter: iters})
		if err != nil {
			t.Fatal(err)
		}
		if m.Objective > prev*(1+1e-9) {
			t.Fatalf("objective increased: %v -> %v at iters=%d", prev, m.Objective, iters)
		}
		prev = m.Objective
	}
}

func TestKmeansValidation(t *testing.T) {
	c := cluster(t, 1)
	x := vecToDArray(t, c, []float64{1, 2}, 1)
	if _, err := Kmeans(x, KmeansOpts{K: 0}); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, err := Kmeans(x, KmeansOpts{K: 5}); err == nil {
		t.Fatal("K > rows should fail")
	}
}

func TestKmeansRandomInit(t *testing.T) {
	c := cluster(t, 2)
	data := workload.GenKmeans(3, 200, 2, 2, 0.1)
	x := toDArray(t, c, data.Points, 3)
	m, err := Kmeans(x, KmeansOpts{K: 2, Seed: 4, InitPlus: false, MaxIter: 30})
	if err != nil || len(m.Centers) != 2 {
		t.Fatalf("random init: %v", err)
	}
}

func TestLMRecoversCoefficients(t *testing.T) {
	c := cluster(t, 3)
	data := workload.GenLinear(7, 4000, 5, 0.01)
	x := toDArray(t, c, data.X, 6)
	y := vecToDArray(t, c, data.Y, 6)
	// Co-partition: FromMat with same nparts and equal rows gives same
	// structure and placement.
	model, err := LM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Converged {
		t.Fatal("LM did not converge")
	}
	if model.Iterations > 2 {
		t.Fatalf("gaussian Newton-Raphson should converge in <=2 iterations, took %d", model.Iterations)
	}
	for i, b := range data.Beta {
		if math.Abs(model.Coefficients[i]-b) > 0.01 {
			t.Fatalf("coef %d = %v, want %v", i, model.Coefficients[i], b)
		}
	}
	// Prediction.
	pred := model.Predict(data.X[0])
	if math.Abs(pred-data.Y[0]) > 0.1 {
		t.Fatalf("prediction %v vs %v", pred, data.Y[0])
	}
}

func TestLogisticGLMRecoversCoefficients(t *testing.T) {
	c := cluster(t, 2)
	data := workload.GenLogistic(11, 20000, 3)
	x := toDArray(t, c, data.X, 4)
	y := vecToDArray(t, c, data.Y, 4)
	model, err := GLM(x, y, GLMOpts{Family: Binomial})
	if err != nil {
		t.Fatal(err)
	}
	if !model.Converged {
		t.Fatal("logistic GLM did not converge")
	}
	for i, b := range data.Beta {
		if math.Abs(model.Coefficients[i]-b) > 0.15 {
			t.Fatalf("coef %d = %v, want %v (+-0.15)", i, model.Coefficients[i], b)
		}
	}
	// Predicted probabilities are calibrated-ish: mean |p - y| < 0.5.
	var errSum float64
	for i := range data.X[:1000] {
		errSum += math.Abs(model.Predict(data.X[i]) - data.Y[i])
	}
	if errSum/1000 > 0.45 {
		t.Fatalf("poor classification error %v", errSum/1000)
	}
}

func TestPoissonGLM(t *testing.T) {
	c := cluster(t, 2)
	// y ~ Poisson(exp(0.5 + 0.8 x)) approximated with deterministic means.
	n := 5000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := float64(i%100)/50 - 1
		xs[i] = []float64{xv}
		ys[i] = math.Round(math.Exp(0.5 + 0.8*xv))
	}
	x := toDArray(t, c, xs, 4)
	y := vecToDArray(t, c, ys, 4)
	model, err := GLM(x, y, GLMOpts{Family: Poisson})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Coefficients[1]-0.8) > 0.1 {
		t.Fatalf("poisson slope = %v", model.Coefficients[1])
	}
}

func TestGLMValidation(t *testing.T) {
	c := cluster(t, 2)
	x := toDArray(t, c, [][]float64{{1}, {2}}, 2)
	y2 := toDArray(t, c, [][]float64{{1, 2}, {2, 3}}, 2)
	if _, err := GLM(x, y2, GLMOpts{}); err == nil {
		t.Fatal("multi-column response should fail")
	}
	y := vecToDArray(t, c, []float64{1, 2}, 2)
	if _, err := GLM(x, y, GLMOpts{Family: "weird"}); err == nil {
		t.Fatal("unknown family should fail")
	}
	yBad := vecToDArray(t, c, []float64{1, 2, 3}, 3)
	if _, err := GLM(x, yBad, GLMOpts{}); err == nil {
		t.Fatal("non-co-partitioned arrays should fail")
	}
}

func TestGLMCollinearGivesRidgeFallback(t *testing.T) {
	c := cluster(t, 1)
	// Duplicate feature columns: singular normal equations.
	n := 100
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		v := float64(i)
		xs[i] = []float64{v, v}
		ys[i] = 2 * v
	}
	x := toDArray(t, c, xs, 1)
	y := vecToDArray(t, c, ys, 1)
	model, err := GLM(x, y, GLMOpts{Family: Gaussian})
	if err != nil {
		t.Fatalf("ridge fallback should rescue singular system: %v", err)
	}
	// Combined slope should reconstruct y.
	got := model.Predict([]float64{10, 10})
	if math.Abs(got-20) > 0.5 {
		t.Fatalf("collinear prediction %v", got)
	}
}

func TestCrossValidate(t *testing.T) {
	c := cluster(t, 2)
	data := workload.GenLinear(13, 2000, 3, 0.1)
	x := toDArray(t, c, data.X, 4)
	y := vecToDArray(t, c, data.Y, 4)
	res, err := CrossValidate(x, y, GLMOpts{Family: Gaussian}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folds != 5 || len(res.FoldDeviance) != 5 {
		t.Fatalf("cv = %+v", res)
	}
	// Held-out deviance per row should reflect the small noise (~0.01 var),
	// far below the response variance.
	perRow := res.MeanDeviance / (2000 / 5)
	if perRow > 0.1 {
		t.Fatalf("cv deviance per row too high: %v", perRow)
	}
	if _, err := CrossValidate(x, y, GLMOpts{}, 1); err == nil {
		t.Fatal("folds < 2 should fail")
	}
}

// Every array splitFold makes is co-located with x, also when x's
// partitions sit off the default round-robin workers.
func TestSplitFoldCoLocated(t *testing.T) {
	c := cluster(t, 3)
	x, _ := darray.New(c, 4)
	y, _ := darray.New(c, 4)
	for i := 0; i < 4; i++ {
		for _, a := range []*darray.DArray{x, y} {
			if err := a.SetWorker(i, (i+1)%3); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Fill(i, darray.NewMat(5+i, 2)); err != nil {
			t.Fatal(err)
		}
		if err := y.Fill(i, darray.NewMat(5+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	tx, ty, sx, sy, err := splitFold(x, y, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range []*darray.DArray{tx, ty, sx, sy} {
		for i := 0; i < 4; i++ {
			if a.WorkerOf(i) != x.WorkerOf(i) {
				t.Fatalf("fold array %d: partition %d on worker %d, x's on %d", k, i, a.WorkerOf(i), x.WorkerOf(i))
			}
		}
	}
}

func TestRandomForestRegression(t *testing.T) {
	c := cluster(t, 2)
	// y = step function of x0: easy for trees, hard for linear models.
	n := 2000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i%200)/100 - 1
		xs[i] = []float64{v, float64(i % 7)}
		if v > 0 {
			ys[i] = 5
		} else {
			ys[i] = -5
		}
	}
	x := toDArray(t, c, xs, 4)
	y := vecToDArray(t, c, ys, 4)
	model, err := RandomForest(x, y, ForestOpts{Trees: 12, MaxDepth: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Trees) != 12 {
		t.Fatalf("trees = %d", len(model.Trees))
	}
	if p := model.Predict([]float64{0.9, 0}); math.Abs(p-5) > 1 {
		t.Fatalf("forest predict(0.9) = %v", p)
	}
	if p := model.Predict([]float64{-0.9, 0}); math.Abs(p+5) > 1 {
		t.Fatalf("forest predict(-0.9) = %v", p)
	}
}

func TestRandomForestClassification(t *testing.T) {
	c := cluster(t, 2)
	data := workload.GenLogistic(17, 3000, 2)
	x := toDArray(t, c, data.X, 4)
	y := vecToDArray(t, c, data.Y, 4)
	model, err := RandomForest(x, y, ForestOpts{Trees: 16, MaxDepth: 6, Classify: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range data.X[:500] {
		if model.Predict(data.X[i]) == data.Y[i] {
			correct++
		}
	}
	if correct < 300 {
		t.Fatalf("forest classification accuracy %d/500", correct)
	}
}

func TestRandomForestValidation(t *testing.T) {
	c := cluster(t, 1)
	x := toDArray(t, c, [][]float64{{1}}, 1)
	y2 := toDArray(t, c, [][]float64{{1, 2}}, 1)
	if _, err := RandomForest(x, y2, ForestOpts{}); err == nil {
		t.Fatal("wide response should fail")
	}
}

// Property: LM on noiseless data recovers coefficients for random shapes.
func TestQuickLMExactRecovery(t *testing.T) {
	c := cluster(t, 2)
	f := func(seed int64) bool {
		d := int(uint(seed)%4) + 1
		data := workload.GenLinear(seed, 50*(d+2), d, 0)
		x := toDArray(t, c, data.X, 3)
		y := vecToDArray(t, c, data.Y, 3)
		model, err := LM(x, y)
		if err != nil {
			return false
		}
		for i, b := range data.Beta {
			if math.Abs(model.Coefficients[i]-b) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: K-means objective equals 0 when sigma=0 and K matches.
func TestQuickKmeansZeroNoise(t *testing.T) {
	c := cluster(t, 2)
	f := func(seed int64) bool {
		k := int(uint(seed)%3) + 2
		data := workload.GenKmeans(seed, 50*k, 3, k, 0)
		x := toDArray(t, c, data.Points, 4)
		m, err := Kmeans(x, KmeansOpts{K: k, Seed: seed, InitPlus: true, MaxIter: 60})
		if err != nil {
			return false
		}
		return m.Objective < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
