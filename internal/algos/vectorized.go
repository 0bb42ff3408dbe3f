package algos

import "math"

// Column-major blocked scoring: the block forms of Predict/Assign used by
// in-database prediction (§5). Each function consumes a block of rows held
// column-major — cols[j][i] is feature j of row i — and writes one result
// per row into out. All of them are bit-identical to calling the row scorer
// row by row: the per-row floating-point operations execute in exactly the
// same order, only the loop nest is reorganized so inner loops stream down
// columns (the DimmWitted-style access pattern that decides main-memory
// throughput).

// PredictBlock is the block form of GLMModel.Predict. cols must hold
// len(Coefficients)-1 feature columns, each with at least len(out) rows.
func (m *GLMModel) PredictBlock(cols [][]float64, out []float64) {
	for i := range out {
		out[i] = m.Coefficients[0]
	}
	AddTerms(out, m.Coefficients[1:], cols)
	LinkBlock(m.Family, out)
}

// AddTerms adds coef[j] * cols[j][i] to out[i] for every column j, four
// columns a pass over out and then one at a time: row i sees its additions in
// ascending j, the order of the row scorer's dot product. Every column must
// hold at least len(out) rows.
func AddTerms(out, coef []float64, cols [][]float64) {
	j := 0
	for ; j+4 <= len(cols); j += 4 {
		c0, c1, c2, c3 := coef[j], coef[j+1], coef[j+2], coef[j+3]
		x0, x1, x2, x3 := cols[j][:len(out)], cols[j+1][:len(out)], cols[j+2][:len(out)], cols[j+3][:len(out)]
		for i := range out {
			out[i] = out[i] + c0*x0[i] + c1*x1[i] + c2*x2[i] + c3*x3[i]
		}
	}
	for ; j < len(cols); j++ {
		c := coef[j]
		for i, v := range cols[j][:len(out)] {
			out[i] += c * v
		}
	}
}

// LinkBlock replaces every linear response in out by the family's mean, in
// a pass of its own.
func LinkBlock(f Family, out []float64) {
	switch f {
	case Binomial:
		for i, eta := range out {
			out[i] = 1 / (1 + math.Exp(-eta))
		}
	case Poisson:
		for i, eta := range out {
			out[i] = math.Exp(eta)
		}
	}
}

// AssignScratch holds the per-block distance buffers AssignBlock reuses, so
// steady-state assignment allocates nothing.
type AssignScratch struct {
	dd   []float64 // squared distance to the current center
	best []float64 // best squared distance so far
}

// AssignBlock is the block form of KmeansModel.Assign: nearest-center index
// per row. Ties resolve to the lowest center index, exactly like Assign's
// strict < comparison.
func (m *KmeansModel) AssignBlock(cols [][]float64, out []int64, sc *AssignScratch) {
	n := len(out)
	if cap(sc.dd) < n {
		sc.dd = make([]float64, n)
		sc.best = make([]float64, n)
	}
	dd, best := sc.dd[:n], sc.best[:n]
	for i := range out {
		out[i] = 0
		best[i] = math.Inf(1)
	}
	for k, c := range m.Centers {
		// Squared distance accumulated in feature order — the same addition
		// sequence as nearest, Assign's row kernel.
		for i := range dd {
			dd[i] = 0
		}
		for j, col := range cols {
			cj := c[j]
			for i, v := range col[:n] {
				d := v - cj
				dd[i] += d * d
			}
		}
		for i, v := range dd {
			if v < best[i] {
				best[i] = v
				out[i] = int64(k)
			}
		}
	}
}

// predictAt walks the tree for row i of a column-major block; the float
// comparisons match Tree.Predict exactly.
func (t *Tree) predictAt(cols [][]float64, i int) float64 {
	n := 0
	for {
		nd := t.Nodes[n]
		if nd.Feature < 0 {
			return nd.Value
		}
		if cols[nd.Feature][i] <= nd.Split {
			n = nd.Left
		} else {
			n = nd.Right
		}
	}
}

// PredictBlock is the block form of ForestModel.Predict. Regression
// accumulates tree outputs tree by tree (the same summation order as the
// row scorer); classification takes the majority vote with the identical
// deterministic tie-break.
func (m *ForestModel) PredictBlock(cols [][]float64, out []float64) {
	n := len(out)
	if len(m.Trees) == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	if m.Classify {
		votes := map[float64]int{}
		for i := 0; i < n; i++ {
			clear(votes)
			for ti := range m.Trees {
				votes[math.Round(m.Trees[ti].predictAt(cols, i))]++
			}
			bestV, bestN := 0.0, -1
			for v, cnt := range votes {
				if cnt > bestN || (cnt == bestN && v < bestV) {
					bestV, bestN = v, cnt
				}
			}
			out[i] = bestV
		}
		return
	}
	for i := range out {
		out[i] = 0
	}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		for i := 0; i < n; i++ {
			out[i] += t.predictAt(cols, i)
		}
	}
	nt := float64(len(m.Trees))
	for i := range out {
		out[i] /= nt
	}
}
