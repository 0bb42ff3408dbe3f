package algos

import (
	"math"
	"sync"

	"verticadr/internal/darray"
	"verticadr/internal/parallel"
)

// The fit shape both iterative fits share. A fit reads its partitions from
// the workers once, cuts them into fixed fitChunkRows-row chunks, and every
// iteration runs a typed kernel over each chunk into that chunk's own slot
// of one slab of float64 partials, then folds the slots through
// parallel.Reduce's pairwise tree. Chunk boundaries are a function of the
// partition layout alone and the tree a function of the chunk count alone,
// so every float bit of a fit is the same at every parallel degree.
//
// The kernels reorganise loops, never arithmetic: every accumulator receives
// the same terms, computed by the same expressions (kept as `acc += t * x`,
// so a target that fuses multiply-adds fuses them as it always did), in the
// same row order as the row-at-a-time loops they replaced, which survive as
// test references (kernels_test.go).

// fitChunkRows is the fixed accumulation chunk size.
const fitChunkRows = 2048

// fitChunk is one contiguous row range of one partition: x's rows and, for a
// supervised fit, the co-partitioned response y (nil for K-means).
type fitChunk struct {
	x, y   *darray.Mat
	lo, hi int
}

// rows returns the chunk's rows of m, row-major.
func (c fitChunk) rows(m *darray.Mat) []float64 {
	return m.Data[c.lo*m.Cols : c.hi*m.Cols]
}

// fitChunks reads the partitions of x (and of y, when non-nil) through the
// worker executors — so a dead worker fails the fit here, before any
// iteration — and cuts each into fixed-size row chunks in partition order.
// It also returns x's partitions in order.
func fitChunks(x, y *darray.DArray) ([]*darray.Mat, []fitChunk, error) {
	xs := make([]*darray.Mat, x.NPartitions())
	var ys []*darray.Mat
	var err error
	if y == nil {
		err = x.Foreach(func(i int, mx *darray.Mat) error {
			xs[i] = mx
			return nil
		})
	} else {
		ys = make([]*darray.Mat, y.NPartitions())
		err = darray.Zip(x, y, func(i int, mx, my *darray.Mat) error {
			xs[i], ys[i] = mx, my
			return nil
		})
	}
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, mx := range xs {
		n += (mx.Rows + fitChunkRows - 1) / fitChunkRows
	}
	chunks := make([]fitChunk, 0, n)
	for i, mx := range xs {
		c := fitChunk{x: mx}
		if ys != nil {
			c.y = ys[i]
		}
		for c.lo = 0; c.lo < mx.Rows; c.lo += fitChunkRows {
			c.hi = min(c.lo+fitChunkRows, mx.Rows)
			chunks = append(chunks, c)
		}
	}
	return xs, chunks, nil
}

// fitPartials is the slab of per-chunk partials a fit folds every
// iteration: in a fold of stride-float partials, chunk i owns the stride
// floats at i*stride. Slabs are pooled, so a fit in steady state allocates
// no partials at all.
type fitPartials struct {
	slab []float64
}

var fitPartialsPool = sync.Pool{New: func() any { return new(fitPartials) }}

// fold runs produce(i, slot) for every chunk i — produce overwrites its
// whole slot — and sums the slots element-wise through parallel.Reduce's
// deterministic tree. The result aliases a slot and is valid until the next
// fold; with no chunks it is all zeros.
func (f *fitPartials) fold(chunks, stride int, produce func(i int, out []float64)) ([]float64, error) {
	if need := max(chunks, 1) * stride; cap(f.slab) < need {
		f.slab = make([]float64, need)
	}
	slot := func(i int) []float64 {
		return f.slab[i*stride : (i+1)*stride : (i+1)*stride]
	}
	if chunks == 0 {
		out := slot(0)
		clear(out)
		return out, nil
	}
	i, err := parallel.Reduce(parallel.Default(), chunks,
		func(i int) (int, error) {
			produce(i, slot(i))
			return i, nil
		},
		func(a, b int) (int, error) {
			sa, sb := slot(a), slot(b)
			for j, v := range sb {
				sa[j] += v
			}
			return a, nil
		})
	if err != nil {
		return nil, err
	}
	return slot(i), nil
}

// ---- IRLS kernel ----

// irlsStride is the size of one IRLS partial for p coefficients: the upper
// triangle of the augmented matrix [XᵀWX | XᵀWz] row by row — row a holds
// XᵀWX[a][a..p-1] then XᵀWz[a] — followed by the deviance.
func irlsStride(p int) int { return p*(p+1)/2 + p + 1 }

// irlsScratch is one worker's row scratch for irlsChunk; a pool hands it
// out, so a fit allocates it once per worker, not once per chunk.
type irlsScratch struct {
	w, wx []float64
	// cols[0] is all ones (the intercept column), cols[1..d] the chunk's
	// features column-major, cols[p] the working response z.
	cols [][]float64
}

var irlsScratchPool sync.Pool

func getIRLSScratch(p, rows int) *irlsScratch {
	s, _ := irlsScratchPool.Get().(*irlsScratch)
	if s == nil || len(s.cols) != p+1 || len(s.w) < rows {
		n := max(rows, fitChunkRows)
		s = &irlsScratch{w: make([]float64, n), wx: make([]float64, n), cols: make([][]float64, p+1)}
		for j := range s.cols {
			s.cols[j] = make([]float64, n)
		}
		for r := range s.cols[0] {
			s.cols[0][r] = 1
		}
	}
	return s
}

// irlsChunk writes one chunk's IRLS partial (layout: irlsStride) against
// coefficients beta. x holds the chunk's rows (row-major, len(beta)-1
// features), y its responses. The deviance slot is filled only when wantDev:
// the fit reports the deviance of one pass, and its logarithms would
// otherwise run on every row of every iteration.
//
// Pass 1 computes the IRLS weight w and working response z of every row;
// pass 2 forms wxₐ = w·xₐ one column at a time; pass 3 accumulates row a of
// the augmented triangle four entries at a time in registers. Each entry
// adds the same (w·xₐ)·x_b terms in the same row order as irlsRowRef.
func irlsChunk(f Family, x, y, beta []float64, wantDev bool, out []float64) {
	p := len(beta)
	d := p - 1
	n := len(y)
	s := getIRLSScratch(p, n)
	w, wx, z := s.w[:n], s.wx[:n], s.cols[p][:n]
	irlsWeights(f, x, y, beta, w, z)
	for j := 1; j < p; j++ {
		col := s.cols[j][:n]
		for r := range col {
			col[r] = x[r*d+j-1]
		}
	}
	off := 0
	for a := 0; a < p; a++ {
		xa := s.cols[a][:n]
		for r, v := range w {
			wx[r] = v * xa[r]
		}
		width := p + 1 - a
		weightedDots(wx, s.cols[a:p+1], out[off:off+width])
		off += width
	}
	out[off] = 0
	if wantDev {
		out[off] = rowsDeviance(f, x, y, beta)
	}
	irlsScratchPool.Put(s)
}

// weightedDots sets out[k] = Σ_r wx[r]·bs[k][r], each sum accumulated in row
// order from zero. Four sums share one pass so their add chains overlap; a
// short last group repeats its final column and drops the extra sums.
func weightedDots(wx []float64, bs [][]float64, out []float64) {
	for len(bs) > 0 {
		var b [4][]float64
		for k := range b {
			b[k] = bs[min(k, len(bs)-1)]
		}
		var sums [4]float64
		sums[0], sums[1], sums[2], sums[3] = dot4(wx, b[0], b[1], b[2], b[3])
		k := copy(out, sums[:min(4, len(bs))])
		out, bs = out[k:], bs[k:]
	}
}

// dot4 returns the four dot products of w with b0..b3, each in index order.
func dot4(w, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(w)], b1[:len(w)], b2[:len(w)], b3[:len(w)]
	for r, v := range w {
		s0 += v * b0[r]
		s1 += v * b1[r]
		s2 += v * b2[r]
		s3 += v * b3[r]
	}
	return
}

// rowEta is the linear predictor of one row: 0 + β₀, then xⱼ·βⱼ₊₁ in
// feature order — the addition sequence of a left-to-right dot product over
// [1, x…]·β.
func rowEta(row, beta []float64) float64 {
	eta := 0 + beta[0]
	coef := beta[1 : len(row)+1]
	for j, v := range row {
		eta += v * coef[j]
	}
	return eta
}

// irlsWeights is IRLS pass 1: the weight w and working response z of every
// row of x (row-major, len(beta)-1 features) with response y, family switch
// outside the row loop. Gaussian needs no η: w = 1 and z = y whatever it is.
func irlsWeights(f Family, x, y, beta, w, z []float64) {
	d := len(beta) - 1
	switch f {
	case Gaussian:
		for r := range w {
			w[r] = 1
		}
		copy(z, y)
	case Binomial:
		for r, yv := range y {
			eta := rowEta(x[r*d:r*d+d], beta)
			mu, v := binomialMu(eta)
			w[r], z[r] = v, eta+(yv-mu)/v
		}
	case Poisson:
		for r, yv := range y {
			eta := rowEta(x[r*d:r*d+d], beta)
			mu := poissonMu(eta)
			w[r], z[r] = mu, eta+(yv-mu)/mu
		}
	}
}

// rowsDeviance is the deviance of rows x (row-major, len(beta)-1 features)
// with responses y at coefficients beta, summed in row order.
func rowsDeviance(f Family, x, y, beta []float64) float64 {
	d := len(beta) - 1
	var dev float64
	for r, yv := range y {
		eta := rowEta(x[r*d:r*d+d], beta)
		switch f {
		case Gaussian:
			t := (yv - eta) * (yv - eta)
			dev += t
		case Binomial:
			mu, _ := binomialMu(eta)
			dev += binDev(yv, mu)
		case Poisson:
			dev += poisDev(yv, poissonMu(eta))
		}
	}
	return dev
}

// binomialMu returns the logit mean at eta (clamped against overflow, so mu
// stays in (0,1)) and its variance, floored at 1e-10 — the IRLS weight.
func binomialMu(eta float64) (mu, v float64) {
	e := eta
	if e > 30 {
		e = 30
	} else if e < -30 {
		e = -30
	}
	mu = 1 / (1 + math.Exp(-e))
	v = mu * (1 - mu)
	if v < 1e-10 {
		v = 1e-10
	}
	return mu, v
}

// poissonMu returns the log-link mean at eta, clamped to [1e-10, e³⁰]; it
// is also the IRLS weight.
func poissonMu(eta float64) float64 {
	e := eta
	if e > 30 {
		e = 30
	}
	mu := math.Exp(e)
	if mu < 1e-10 {
		mu = 1e-10
	}
	return mu
}

// ---- Lloyd kernel ----

// kmeansStride is the size of one Lloyd partial for K centers of d
// features: the K×d per-center sums, the K counts (exact in float64 far
// beyond any chunk count) and the objective.
func kmeansStride(k, d int) int { return k*d + k + 1 }

// lloydChunk writes the Lloyd partial (layout: kmeansStride) of n rows x
// (row-major, d features) against centers.
func lloydChunk(x []float64, n, d int, centers [][]float64, out []float64) {
	kd := len(centers) * d
	sums, counts := out[:kd], out[kd:kd+len(centers)]
	clear(out)
	var obj float64
	for r := 0; r < n; r++ {
		row := x[r*d : r*d+d : r*d+d]
		k, dist := nearest(row, centers)
		counts[k]++
		obj += dist
		s := sums[k*d : k*d+d]
		s = s[:len(row)]
		for j, v := range row {
			s[j] += v
		}
	}
	out[len(out)-1] = obj
}

// nearest returns the index of the center nearest to row and its squared
// distance. Distances to four centers are computed side by side — four
// independent add chains instead of one — but each is still summed in
// feature order as linalg.SqDist does, and the strict < keeps the lowest
// index on ties, so both results are bit-identical to the one-center loop.
//
// A squared distance is never negative (not even −0), so its bits order as
// it does; NaN's bits exceed +Inf's, so they compare false as NaN does.
// Comparing the bits lets the selection compile to conditional moves — which
// center is nearest changes row by row, and a branch on it mispredicts.
func nearest(row []float64, centers [][]float64) (int, float64) {
	best, bestBits := 0, math.Float64bits(math.Inf(1))
	k := 0
	for ; k+4 <= len(centers); k += 4 {
		c0, c1, c2, c3 := centers[k][:len(row)], centers[k+1][:len(row)], centers[k+2][:len(row)], centers[k+3][:len(row)]
		var s0, s1, s2, s3 float64
		for j, v := range row {
			t0, t1, t2, t3 := v-c0[j], v-c1[j], v-c2[j], v-c3[j]
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
		best, bestBits = closer(best, bestBits, k, s0)
		best, bestBits = closer(best, bestBits, k+1, s1)
		best, bestBits = closer(best, bestBits, k+2, s2)
		best, bestBits = closer(best, bestBits, k+3, s3)
	}
	for ; k < len(centers); k++ {
		c := centers[k][:len(row)]
		var s float64
		for j, v := range row {
			t := v - c[j]
			s += t * t
		}
		best, bestBits = closer(best, bestBits, k, s)
	}
	return best, math.Float64frombits(bestBits)
}

// closer is nearest's `if s < bestD { best, bestD = k, s }` on bits.
func closer(best int, bestBits uint64, k int, s float64) (int, uint64) {
	b := math.Float64bits(s)
	if b < bestBits {
		best = k
	}
	return best, min(b, bestBits)
}
