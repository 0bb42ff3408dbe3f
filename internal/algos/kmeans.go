// Package algos implements the parallel machine-learning algorithms of
// HP Distributed R used throughout the paper's evaluation: distributed
// K-means clustering (hpdkmeans), generalized linear models via
// Newton–Raphson / iteratively reweighted least squares (hpdglm — the paper
// notes Distributed R fits regressions with Newton–Raphson where stock R
// uses matrix decomposition, §7.3.1), plain linear regression, k-fold
// cross-validation (cv.hpdglm) and a bagged random forest. All algorithms
// operate on the distributed arrays of internal/darray: each iteration maps
// over partitions on their owning workers and reduces partial statistics at
// the master.
package algos

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"verticadr/internal/darray"
	"verticadr/internal/linalg"
	"verticadr/internal/parallel"
)

// KmeansModel is a fitted clustering model: the final centers (what the
// paper stores in the database for KmeansPredict, §5).
type KmeansModel struct {
	K          int
	Centers    [][]float64
	Iterations int
	Objective  float64 // final within-cluster sum of squares
	Converged  bool
}

// KmeansOpts configures the solver.
type KmeansOpts struct {
	K        int
	MaxIter  int     // default 20
	Tol      float64 // center-movement convergence threshold (default 1e-4)
	Seed     int64
	InitPlus bool // k-means++ initialization instead of random rows
}

// Kmeans runs distributed Lloyd's iterations over a row-partitioned array.
// Per iteration every chunk of every partition computes partial sums and
// counts per center against a broadcast copy of the centers; the master
// folds the partials and recomputes centers — one logical round trip per
// iteration, exactly the communication structure of the paper's hpdkmeans.
// The partials fold through the deterministic tree GLM uses (fit.go), so
// centers, objective and iteration count are bit-identical at every
// parallel degree and on every run.
func Kmeans(x *darray.DArray, opts KmeansOpts) (*KmeansModel, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("algos: kmeans needs K >= 1")
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 20
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-4
	}
	d := x.Cols()
	n := x.Rows()
	if n < opts.K {
		return nil, fmt.Errorf("algos: kmeans with %d rows < K=%d", n, opts.K)
	}
	xs, chunks, err := fitChunks(x, nil)
	if err != nil {
		return nil, err
	}
	centers, err := initCenters(xs, n, opts)
	if err != nil {
		return nil, err
	}
	parts := fitPartialsPool.Get().(*fitPartials)
	defer fitPartialsPool.Put(parts)
	model := &KmeansModel{K: opts.K}
	for iter := 0; iter < opts.MaxIter; iter++ {
		part, err := parts.fold(len(chunks), kmeansStride(opts.K, d), func(i int, out []float64) {
			c := chunks[i]
			lloydChunk(c.rows(c.x), c.hi-c.lo, d, centers, out)
		})
		if err != nil {
			return nil, err
		}
		sums, counts := part[:opts.K*d], part[opts.K*d:opts.K*d+opts.K]
		// Recompute centers; empty clusters keep their previous center.
		var moved float64
		flat := make([]float64, opts.K*d)
		newCenters := make([][]float64, opts.K)
		for k := range newCenters {
			nc := flat[k*d : (k+1)*d : (k+1)*d]
			if counts[k] == 0 {
				copy(nc, centers[k])
			} else {
				for j := range nc {
					nc[j] = sums[k*d+j] / counts[k]
				}
			}
			moved += linalg.SqDist(nc, centers[k])
			newCenters[k] = nc
		}
		centers = newCenters
		model.Iterations = iter + 1
		model.Objective = part[len(part)-1]
		if math.Sqrt(moved) < opts.Tol {
			model.Converged = true
			break
		}
	}
	model.Centers = centers
	return model, nil
}

// initCenters picks initial centers from the fit's partitions xs (n rows in
// all): random distinct rows, or k-means++ (sampling proportional to squared
// distance from chosen centers).
func initCenters(xs []*darray.Mat, n int, opts KmeansOpts) ([][]float64, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	// Global row index -> a copy of that row.
	fetchRow := func(g int) []float64 {
		p := 0
		for ; p < len(xs)-1 && g >= xs[p].Rows; p++ {
			g -= xs[p].Rows
		}
		return slices.Clone(xs[p].Row(g))
	}
	centers := make([][]float64, 0, opts.K)
	centers = append(centers, fetchRow(rng.Intn(n)))
	if !opts.InitPlus {
		seen := map[int]bool{}
		for len(centers) < opts.K {
			g := rng.Intn(n)
			if seen[g] {
				continue
			}
			seen[g] = true
			centers = append(centers, fetchRow(g))
		}
		return centers, nil
	}
	// k-means++: D²(x) for every row, partitions in parallel, then one row
	// sampled with probability proportional to D².
	partWeights := make([]float64, len(xs))
	partDists := make([][]float64, len(xs))
	for p, m := range xs {
		partDists[p] = make([]float64, m.Rows)
	}
	for len(centers) < opts.K {
		err := parallel.Default().ForEach(len(xs), func(p int) error {
			m, ds := xs[p], partDists[p]
			var total float64
			for r := range ds {
				_, best := nearest(m.Row(r), centers)
				ds[r] = best
				total += best
			}
			partWeights[p] = total
			return nil
		})
		if err != nil {
			return nil, err
		}
		var grand float64
		for _, w := range partWeights {
			grand += w
		}
		if grand == 0 {
			// All points coincide with centers; fall back to random rows.
			centers = append(centers, fetchRow(rng.Intn(n)))
			continue
		}
		target := rng.Float64() * grand
		chosenPart, chosenRow := len(xs)-1, 0
		for p, w := range partWeights {
			if target < w {
				chosenPart = p
				for r, dd := range partDists[p] {
					if target < dd {
						chosenRow = r
						break
					}
					target -= dd
					chosenRow = r
				}
				break
			}
			target -= w
		}
		centers = append(centers, slices.Clone(xs[chosenPart].Row(chosenRow)))
	}
	return centers, nil
}

// Assign returns the nearest-center index for a single point.
func (m *KmeansModel) Assign(row []float64) int {
	k, _ := nearest(row, m.Centers)
	return k
}
