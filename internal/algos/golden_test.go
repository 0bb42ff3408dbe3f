package algos

import (
	"math"
	"testing"

	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/workload"
)

// The golden values below were recorded from the fits as they ran before the
// chunk kernels (PR 24's tree), so this pins what the kernels promise: GLM
// bits unchanged, K-means unchanged up to the association of its fold.

// goldenGLMCases lays out one (x, y) training set per family, 9000 rows over
// four partitions (two chunks each, the second ragged).
func goldenGLMCases(t *testing.T, c *dr.Cluster) map[Family][2]*darray.DArray {
	lin := workload.GenLinear(51, 9000, 5, 0.2)
	logit := workload.GenLogistic(52, 9000, 4)
	px := make([][]float64, 9000)
	py := make([]float64, 9000)
	for i := range px {
		a, b := float64(i%97)/48-1, float64(i%13)/6-1
		px[i] = []float64{a, b}
		py[i] = math.Round(math.Exp(0.4 + 0.7*a - 0.3*b))
	}
	return map[Family][2]*darray.DArray{
		Gaussian: {toDArray(t, c, lin.X, 4), vecToDArray(t, c, lin.Y, 4)},
		Binomial: {toDArray(t, c, logit.X, 4), vecToDArray(t, c, logit.Y, 4)},
		Poisson:  {toDArray(t, c, px, 4), vecToDArray(t, c, py, 4)},
	}
}

// TestGLMGoldenAcrossDegrees: coefficients, deviance, iterations and
// convergence of every family, stopped by Tol and by MaxIter, are the
// recorded bits at every degree.
func TestGLMGoldenAcrossDegrees(t *testing.T) {
	golden := []struct {
		f         Family
		maxIter   int
		iters     int
		converged bool
		deviance  uint64
		coef      []uint64
	}{
		{Gaussian, 0, 2, true, 0x40768d3bc4072cf6, []uint64{0xbfe8d38ff52d404d, 0x3ffaef753b96fe33, 0xbffa7fd6567cfc26, 0x3ffe5949fb64162f, 0x4002f9a042b639c8, 0x3ff20cd1eeaa6249}},
		{Gaussian, 3, 2, true, 0x40768d3bc4072cf6, []uint64{0xbfe8d38ff52d404d, 0x3ffaef753b96fe33, 0xbffa7fd6567cfc26, 0x3ffe5949fb64162f, 0x4002f9a042b639c8, 0x3ff20cd1eeaa6249}},
		{Binomial, 0, 6, true, 0x40b71c856ce6b0de, []uint64{0x3fff8c528594bd95, 0xbffbe849fff8f7ab, 0x3fed43c7ae3527f3, 0xbfd8831d51998d4e, 0x3ffb2acb86e585bf}},
		{Binomial, 3, 3, false, 0x40b7fcb5e8372cfa, []uint64{0x3ffd24abdc763843, 0xbff994420952d293, 0x3feac8353e4e9739, 0xbfd6710159c7c4fd, 0x3ff8dda5ae72ea6a}},
		{Poisson, 0, 5, true, 0x407b303a230fe1c2, []uint64{0x3fdad5b843cff8ca, 0x3fe5206f05d17975, 0xbfd11ae9cd8d463d}},
		{Poisson, 3, 3, false, 0x408296219d300bf2, []uint64{0x3fdb08b2d48f8ff1, 0x3fe5556be5026a39, 0xbfd158026ce95e9a}},
	}
	cases := goldenGLMCases(t, cluster(t, 3))
	for _, g := range golden {
		opts := GLMOpts{Family: g.f}
		if g.maxIter > 0 {
			opts.MaxIter, opts.Tol = g.maxIter, 1e-300
		}
		want := &GLMModel{Family: g.f, Iterations: g.iters, Converged: g.converged, Deviance: math.Float64frombits(g.deviance)}
		for _, b := range g.coef {
			want.Coefficients = append(want.Coefficients, math.Float64frombits(b))
		}
		for _, deg := range []int{1, 2, 3, 4, 8} {
			xy := cases[g.f]
			got := fitAtDegree(t, deg, func() (*GLMModel, error) { return GLM(xy[0], xy[1], opts) })
			modelsBitIdentical(t, deg, want, got)
		}
	}
}

// TestKmeansGolden: the recorded objective to 1e-9 (the benchmark's own
// gate) and centers to 1e-12 relative, after one Lloyd round — where every
// assignment, being decided by bit-identical distances, must be the
// recorded one — and after six.
func TestKmeansGolden(t *testing.T) {
	golden := []struct {
		plus    bool
		iters   int
		obj     float64
		centers [][]float64
	}{
		{false, 1, 2.2512346813584544e+07, [][]float64{{-2.97968730762722, 35.45413256267497, -20.23196370754566, 49.53961470682476, -49.90751078824493, 14.40710771173012}, {4.848859942471273, -36.41876312885883, -0.36199250069357697, -20.73829139938505, 11.496940115253544, -9.201631403466802}, {4.256964065783931, -37.296442720173445, -0.38530511694855607, -20.09084675539425, 13.432387074123659, -8.461569009399103}, {39.11790496244572, 15.708595803271109, 20.023278682414045, 15.481705014665991, 10.197963102391036, 17.105525932020516}, {-27.987820114981737, 27.416806929430237, -28.160236246069097, 25.07703873073056, -0.6351379976499025, 38.86379138205345}}},
		{false, 6, 4.475197374895547e+06, [][]float64{{-3.1805284862666667, 35.78622351851377, -20.0831503935881, 49.48000703407726, -49.78447975347454, 15.181244718112588}, {5.041847896363168, -36.59192027803791, -0.6114002029197642, -20.51686257069698, 11.748779931056815, -9.063951321162294}, {3.980987410105193, -37.326003332885506, -0.18373855532494882, -20.14648593840294, 13.605031354185659, -8.42976085790726}, {39.11790496244572, 15.708595803271105, 20.023278682414045, 15.481705014665993, 10.197963102391036, 17.105525932020516}, {-37.15475705256929, 24.074020062781244, -31.27889535211318, 15.97322802031899, 17.698732932950485, 47.250865564335356}}},
		{true, 1, 242457.77136404294, [][]float64{{-3.1805284862666667, 35.78622351851377, -20.0831503935881, 49.48000703407726, -49.78447975347454, 15.181244718112588}, {-37.15475705256929, 24.074020062781244, -31.27889535211318, 15.97322802031899, 17.698732932950488, 47.250865564335356}, {4.46105475952232, -36.99381138968683, -0.3772667301110538, -20.314091132916893, 12.765028628005757, -8.716748768819443}, {47.79595603502557, 29.369060470256358, -7.713171675447358, 21.21262293111946, 22.37584643930366, 14.221792195692567}, {30.38586149065869, 1.9631395574754171, 47.93229745313541, 9.715130934705185, -2.0556876082240976, 20.007201450644622}}},
		{true, 6, 121071.79499429883, [][]float64{{-3.1805284862666667, 35.78622351851377, -20.0831503935881, 49.48000703407726, -49.78447975347454, 15.181244718112588}, {-37.15475705256929, 24.074020062781244, -31.27889535211318, 15.97322802031899, 17.698732932950488, 47.250865564335356}, {4.46105475952232, -36.99381138968683, -0.3772667301110538, -20.314091132916893, 12.765028628005757, -8.716748768819443}, {47.79595603502557, 29.369060470256358, -7.713171675447358, 21.21262293111946, 22.37584643930366, 14.221792195692567}, {30.38586149065869, 1.9631395574754171, 47.93229745313541, 9.715130934705185, -2.0556876082240976, 20.007201450644622}}},
	}
	c := cluster(t, 3)
	pts := workload.GenKmeans(5, 9000, 6, 5, 1.5)
	x := toDArray(t, c, pts.Points, 4)
	for _, g := range golden {
		m, err := Kmeans(x, KmeansOpts{K: 5, Seed: 3, InitPlus: g.plus, MaxIter: g.iters, Tol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Objective-g.obj) > 1e-9*g.obj {
			t.Fatalf("init++=%v iters=%d: objective %v, recorded %v", g.plus, g.iters, m.Objective, g.obj)
		}
		for k, cc := range g.centers {
			for j, v := range cc {
				if math.Abs(m.Centers[k][j]-v) > 1e-12*math.Abs(v) {
					t.Fatalf("init++=%v iters=%d: center %d[%d] = %v, recorded %v", g.plus, g.iters, k, j, m.Centers[k][j], v)
				}
			}
		}
	}
}
