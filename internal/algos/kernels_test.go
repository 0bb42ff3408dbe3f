package algos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/linalg"
	"verticadr/internal/parallel"
)

// The row-at-a-time loops the fit kernels replaced, kept as the reference
// they must match bit for bit (as gatherRow serves PREDICT's block scorers).

// irlsTermsRef returns (mean, weight, working response, deviance
// contribution) for one observation at linear predictor eta.
func irlsTermsRef(f Family, eta, y float64) (mu, w, z, dev float64) {
	switch f {
	case Gaussian:
		mu = eta
		w = 1
		z = y
		dev = (y - mu) * (y - mu)
	case Binomial:
		e := eta
		if e > 30 {
			e = 30
		} else if e < -30 {
			e = -30
		}
		mu = 1 / (1 + math.Exp(-e))
		v := mu * (1 - mu)
		if v < 1e-10 {
			v = 1e-10
		}
		w = v
		z = eta + (y-mu)/v
		dev += binDev(y, mu)
	case Poisson:
		e := eta
		if e > 30 {
			e = 30
		}
		mu = math.Exp(e)
		if mu < 1e-10 {
			mu = 1e-10
		}
		w = mu
		z = eta + (y-mu)/mu
		dev += poisDev(y, mu)
	}
	return mu, w, z, dev
}

// irlsPartialRef is one chunk's contribution to the normal equations: the
// upper triangle of XᵀWX, XᵀWz and the deviance.
type irlsPartialRef struct {
	xtwx *linalg.Matrix
	xtwz []float64
	dev  float64
}

// irlsRowRef is the IRLS chunk loop: one row at a time, copied into xi
// behind the intercept, η by linalg.Dot, every accumulator in memory.
func irlsRowRef(f Family, mx, my *darray.Mat, lo, hi int, beta []float64) *irlsPartialRef {
	p := len(beta)
	lp := &irlsPartialRef{xtwx: linalg.NewMatrix(p, p), xtwz: make([]float64, p)}
	xi := make([]float64, p)
	xi[0] = 1
	for r := lo; r < hi; r++ {
		copy(xi[1:], mx.Row(r))
		eta := linalg.Dot(xi, beta)
		_, w, z, d := irlsTermsRef(f, eta, my.At(r, 0))
		lp.dev += d
		for a := 0; a < p; a++ {
			wxa := w * xi[a]
			lp.xtwz[a] += wxa * z
			rowA := lp.xtwx.Row(a)
			for b := a; b < p; b++ {
				rowA[b] += wxa * xi[b]
			}
		}
	}
	return lp
}

// glmRef is GLM as it ran before the kernels: row-at-a-time chunks folded by
// the same tree, the deviance computed on every pass and reported from the
// last one.
func glmRef(x, y *darray.DArray, opts GLMOpts) (*GLMModel, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 25
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	p := x.Cols() + 1
	type chunk struct {
		mx, my *darray.Mat
		lo, hi int
	}
	var chunks []chunk
	mxs, mys := make([]*darray.Mat, x.NPartitions()), make([]*darray.Mat, x.NPartitions())
	if err := darray.Zip(x, y, func(i int, mx, my *darray.Mat) error {
		mxs[i], mys[i] = mx, my
		return nil
	}); err != nil {
		return nil, err
	}
	for i, mx := range mxs {
		for lo := 0; lo < mx.Rows; lo += 2048 {
			chunks = append(chunks, chunk{mx, mys[i], lo, min(lo+2048, mx.Rows)})
		}
	}
	beta := make([]float64, p)
	model := &GLMModel{Family: opts.Family}
	for iter := 0; iter < opts.MaxIter; iter++ {
		part, err := parallel.Reduce(parallel.Default(), len(chunks),
			func(ci int) (*irlsPartialRef, error) {
				c := chunks[ci]
				return irlsRowRef(opts.Family, c.mx, c.my, c.lo, c.hi, beta), nil
			},
			func(a, b *irlsPartialRef) (*irlsPartialRef, error) {
				a.dev += b.dev
				for i := 0; i < p; i++ {
					a.xtwz[i] += b.xtwz[i]
					ra, rb := a.xtwx.Row(i), b.xtwx.Row(i)
					for j := i; j < p; j++ {
						ra[j] += rb[j]
					}
				}
				return a, nil
			})
		if err != nil {
			return nil, err
		}
		if part == nil {
			part = &irlsPartialRef{xtwx: linalg.NewMatrix(p, p), xtwz: make([]float64, p)}
		}
		xtwx := part.xtwx
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				xtwx.Set(b, a, xtwx.At(a, b))
			}
		}
		if opts.Ridge > 0 {
			xtwx.AddRidge(opts.Ridge)
		}
		newBeta, err := linalg.CholeskySolve(xtwx, part.xtwz)
		if err != nil {
			xtwx.AddRidge(1e-8)
			if newBeta, err = linalg.CholeskySolve(xtwx, part.xtwz); err != nil {
				return nil, err
			}
		}
		var change, scale float64
		for i := range beta {
			change += (newBeta[i] - beta[i]) * (newBeta[i] - beta[i])
			scale += newBeta[i] * newBeta[i]
		}
		beta = newBeta
		model.Iterations = iter + 1
		model.Deviance = part.dev
		if change <= opts.Tol*(scale+1e-12) {
			model.Converged = true
			break
		}
	}
	model.Coefficients = beta
	return model, nil
}

// lloydRowRef is the Lloyd loop over rows [lo, hi) of m: linalg.SqDist to
// every center in turn, strict < (lowest index wins a tie), per-center sums
// and counts, and the objective, all in row order.
func lloydRowRef(m *darray.Mat, lo, hi int, centers [][]float64) (sums [][]float64, counts []int, obj float64) {
	sums = make([][]float64, len(centers))
	for k := range sums {
		sums[k] = make([]float64, m.Cols)
	}
	counts = make([]int, len(centers))
	for r := lo; r < hi; r++ {
		row := m.Row(r)
		best, bestD := 0, math.Inf(1)
		for k, c := range centers {
			if dd := linalg.SqDist(row, c); dd < bestD {
				best, bestD = k, dd
			}
		}
		counts[best]++
		obj += bestD
		for j, v := range row {
			sums[best][j] += v
		}
	}
	return sums, counts, obj
}

// kernelValue draws one feature value: mixed magnitudes and signs so the
// addition order matters, and — when wild — now and then one of the values a
// kernel must carry exactly.
func kernelValue(rng *rand.Rand, wild bool) float64 {
	if wild && rng.Intn(16) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -1e300}[rng.Intn(6)]
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
}

// kernelCase is one chunk of input for both kernels: n rows of d features,
// responses for each family, coefficients and K centers, some centers
// duplicated and some rows planted on a center so distance ties occur.
type kernelCase struct {
	x       *darray.Mat
	ys      map[Family]*darray.Mat
	beta    []float64
	centers [][]float64
}

func newKernelCase(rng *rand.Rand, n, d, k int, wild bool) kernelCase {
	x := darray.NewMat(n, d)
	for i := range x.Data {
		x.Data[i] = kernelValue(rng, wild)
	}
	kc := kernelCase{x: x, ys: map[Family]*darray.Mat{}}
	for _, f := range []Family{Gaussian, Binomial, Poisson} {
		y := darray.NewMat(n, 1)
		for i := range y.Data {
			switch f {
			case Gaussian:
				y.Data[i] = kernelValue(rng, wild)
			case Binomial:
				y.Data[i] = float64(rng.Intn(2))
			case Poisson:
				y.Data[i] = float64(rng.Intn(6))
			}
		}
		kc.ys[f] = y
	}
	kc.beta = make([]float64, d+1)
	for j := range kc.beta {
		kc.beta[j] = (rng.Float64() - 0.5) * 0.5
	}
	if wild && rng.Intn(4) == 0 {
		kc.beta[rng.Intn(d+1)] = []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1)}[rng.Intn(3)]
	}
	for c := 0; c < k; c++ {
		center := make([]float64, d)
		switch {
		case c > 0 && rng.Intn(3) == 0:
			copy(center, kc.centers[rng.Intn(c)]) // duplicate: a tie on every row
		case n > 0 && rng.Intn(2) == 0:
			copy(center, x.Row(rng.Intn(n))) // a row at distance exactly 0
		default:
			for j := range center {
				center[j] = kernelValue(rng, wild)
			}
		}
		kc.centers = append(kc.centers, center)
	}
	for i := 0; i < n/8 && k > 0; i++ {
		copy(x.Row(rng.Intn(n)), kc.centers[rng.Intn(k)])
	}
	return kc
}

// sameBits is bitwise equality, except that any NaN matches any NaN: which
// payload an operation on two NaNs (or a NaN and an invalid operation's
// default NaN) returns follows the operand order the compiler picks for a
// commutative instruction, not the source.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkKernels runs both kernels on the case's rows [lo, hi) and compares
// every float of their partials with the row references, bit for bit.
func checkKernels(kc kernelCase, lo, hi int) error {
	p := len(kc.beta)
	d := p - 1
	rows := kc.x.Data[lo*d : hi*d]
	out := make([]float64, irlsStride(p))
	for _, f := range []Family{Gaussian, Binomial, Poisson} {
		y := kc.ys[f].Data[lo:hi]
		for _, wantDev := range []bool{false, true} {
			for i := range out {
				out[i] = 12345 // every slot must be overwritten
			}
			irlsChunk(f, rows, y, kc.beta, wantDev, out)
			ref := irlsRowRef(f, kc.x, kc.ys[f], lo, hi, kc.beta)
			off := 0
			for a := 0; a < p; a++ {
				for b := a; b < p; b++ {
					if !sameBits(out[off], ref.xtwx.At(a, b)) {
						return fmt.Errorf("%s XᵀWX[%d][%d] = %x, reference %x", f, a, b, math.Float64bits(out[off]), math.Float64bits(ref.xtwx.At(a, b)))
					}
					off++
				}
				if !sameBits(out[off], ref.xtwz[a]) {
					return fmt.Errorf("%s XᵀWz[%d] = %x, reference %x", f, a, math.Float64bits(out[off]), math.Float64bits(ref.xtwz[a]))
				}
				off++
			}
			want := 0.0
			if wantDev {
				want = ref.dev
			}
			if !sameBits(out[off], want) {
				return fmt.Errorf("%s deviance (wanted: %v) = %x, reference %x", f, wantDev, math.Float64bits(out[off]), math.Float64bits(want))
			}
		}
	}
	k := len(kc.centers)
	out = make([]float64, kmeansStride(k, d))
	lloydChunk(rows, hi-lo, d, kc.centers, out)
	sums, counts, obj := lloydRowRef(kc.x, lo, hi, kc.centers)
	for c := 0; c < k; c++ {
		if out[k*d+c] != float64(counts[c]) {
			return fmt.Errorf("center %d count %v, reference %d", c, out[k*d+c], counts[c])
		}
		for j := 0; j < d; j++ {
			if !sameBits(out[c*d+j], sums[c][j]) {
				return fmt.Errorf("center %d sum %d = %x, reference %x", c, j, math.Float64bits(out[c*d+j]), math.Float64bits(sums[c][j]))
			}
		}
	}
	if !sameBits(out[len(out)-1], obj) {
		return fmt.Errorf("objective %x, reference %x", math.Float64bits(out[len(out)-1]), math.Float64bits(obj))
	}
	model := &KmeansModel{Centers: kc.centers}
	for i := lo; i < hi; i++ {
		_, counts, _ := lloydRowRef(kc.x, i, i+1, kc.centers)
		if got := model.Assign(kc.x.Row(i)); counts[got] != 1 {
			return fmt.Errorf("row %d: Assign %d, reference counts %v", i, got, counts)
		}
	}
	return nil
}

// TestFitKernelsMatchRowReference is the equivalence property: on chunks
// full of NaN, ±Inf, −0, 1e300 and exact distance ties, at every feature
// count and center count the fits meet, the IRLS and Lloyd partials are the
// row references' to the bit — the full chunk, a ragged one, a single row
// and no rows.
func TestFitKernelsMatchRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, d := range []int{1, 7, 8} {
		for _, k := range []int{1, 3, 4, 5, 8, 13} {
			for _, wild := range []bool{false, true} {
				kc := newKernelCase(rng, fitChunkRows+37, d, k, wild)
				for _, r := range [][2]int{{0, fitChunkRows}, {fitChunkRows, fitChunkRows + 37}, {5, 6}, {9, 9}} {
					if err := checkKernels(kc, r[0], r[1]); err != nil {
						t.Fatalf("d=%d K=%d wild=%v rows [%d,%d): %v", d, k, wild, r[0], r[1], err)
					}
				}
			}
		}
	}
}

// FuzzFitKernels compares both kernels with the row references on drawn
// shapes and values, bitwise.
func FuzzFitKernels(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(4), uint16(100), true)
	f.Add(int64(2), uint8(0), uint8(0), uint16(0), false)
	f.Add(int64(3), uint8(8), uint8(12), uint16(2100), true)
	f.Add(int64(4), uint8(1), uint8(7), uint16(2048), true)
	f.Fuzz(func(t *testing.T, seed int64, dSel, kSel uint8, n uint16, wild bool) {
		d, k, rows := 1+int(dSel%9), 1+int(kSel%16), int(n%4200)
		rng := rand.New(rand.NewSource(seed))
		kc := newKernelCase(rng, rows, d, k, wild)
		lo := 0
		if rows > 0 {
			lo = rng.Intn(rows + 1)
		}
		if err := checkKernels(kc, lo, rows); err != nil {
			t.Fatalf("d=%d K=%d rows [%d,%d): %v", d, k, lo, rows, err)
		}
	})
}

// fitArrays lays out co-partitioned (x, y) arrays with the given partition
// sizes — an empty partition and ragged chunks included — on c.
func fitArrays(t *testing.T, c *dr.Cluster, x, y *darray.Mat, sizes []int) (*darray.DArray, *darray.DArray) {
	t.Helper()
	ax, err := darray.New(c, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	ay, err := darray.New(c, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	lo := 0
	for i, n := range sizes {
		px, py := darray.NewMat(n, x.Cols), darray.NewMat(n, 1)
		copy(px.Data, x.Data[lo*x.Cols:(lo+n)*x.Cols])
		copy(py.Data, y.Data[lo:lo+n])
		if err := ax.Fill(i, px); err != nil {
			t.Fatal(err)
		}
		if err := ay.Fill(i, py); err != nil {
			t.Fatal(err)
		}
		lo += n
	}
	return ax, ay
}

// TestGLMDevianceMatchesRowReference pins GLMModel.Deviance — the deviance
// at the coefficients the final iteration started from — along with the
// coefficients, iterations and convergence against glmRef, which computes
// the deviance on every pass: every family, stopped by MaxIter and by Tol,
// with a ridge and through the singular-matrix ridge retry, at degrees 1
// and 3.
func TestGLMDevianceMatchesRowReference(t *testing.T) {
	c := cluster(t, 3)
	rng := rand.New(rand.NewSource(7))
	const n, d = 9000, 4
	sizes := []int{2048, 0, 3001, 3951}
	x := darray.NewMat(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	singular := darray.NewMat(n, d+1) // an all-zero last column
	for i := 0; i < n; i++ {
		copy(singular.Row(i), x.Row(i))
	}
	ys := map[Family]*darray.Mat{}
	for _, f := range []Family{Gaussian, Binomial, Poisson} {
		y := darray.NewMat(n, 1)
		for i := 0; i < n; i++ {
			eta := 0.3 + 0.8*x.At(i, 0) - 0.5*x.At(i, 1) + 0.25*x.At(i, 3)
			switch f {
			case Gaussian:
				y.Data[i] = eta + 0.1*rng.NormFloat64()
			case Binomial:
				if rng.Float64() < 1/(1+math.Exp(-eta)) {
					y.Data[i] = 1
				}
			case Poisson:
				y.Data[i] = math.Round(math.Exp(eta/2) + rng.Float64())
			}
		}
		ys[f] = y
	}
	for _, f := range []Family{Gaussian, Binomial, Poisson} {
		for _, tc := range []struct {
			name string
			xm   *darray.Mat
			opts GLMOpts
		}{
			{"maxiter", x, GLMOpts{Family: f, MaxIter: 2, Tol: 1e-300}},
			{"tol", x, GLMOpts{Family: f}},
			{"ridge", x, GLMOpts{Family: f, MaxIter: 3, Ridge: 0.5}},
			{"singular-retry", singular, GLMOpts{Family: f, Tol: 1e-6}},
		} {
			ax, ay := fitArrays(t, c, tc.xm, ys[f], sizes)
			want, err := glmRef(ax, ay, tc.opts)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", f, tc.name, err)
			}
			if tc.name == "tol" && (!want.Converged || want.Iterations == tc.opts.MaxIter) {
				t.Fatalf("%s/%s: the reference did not stop on Tol (%d iterations)", f, tc.name, want.Iterations)
			}
			for _, deg := range []int{1, 3} {
				got := fitAtDegree(t, deg, func() (*GLMModel, error) { return GLM(ax, ay, tc.opts) })
				modelsBitIdentical(t, deg, want, got)
			}
		}
	}
}
