package algos

import (
	"fmt"
	"math"

	"verticadr/internal/darray"
	"verticadr/internal/linalg"
)

// Family selects the GLM response distribution and link, mirroring R's
// family=gaussian()/binomial(link=logit)/poisson(link=log).
type Family string

// Supported families.
const (
	Gaussian Family = "gaussian"
	Binomial Family = "binomial"
	Poisson  Family = "poisson"
)

// GLMModel is a fitted generalized linear model. Coefficients[0] is the
// intercept; the rest align with the feature columns of the training array.
type GLMModel struct {
	Family       Family
	Coefficients []float64
	Iterations   int
	Converged    bool
	// Deviance is the training deviance at the coefficients the final
	// iteration started from — one solve behind Coefficients.
	Deviance float64
}

// GLMOpts configures the Newton–Raphson solver.
type GLMOpts struct {
	Family  Family
	MaxIter int     // default 25
	Tol     float64 // relative coefficient-change threshold (default 1e-8)
	Ridge   float64 // optional L2 stabilizer on the normal equations
}

// GLM fits a generalized linear model on co-partitioned X (features) and Y
// (response, one column) using distributed Newton–Raphson / IRLS: each
// iteration, every partition computes its local XᵀWX and XᵀWz against the
// broadcast coefficient vector; the master reduces the partials and solves
// the (p+1)×(p+1) system with Cholesky. This is hpdglm; with Family ==
// Gaussian it is exact linear regression and converges in one step (the
// paper observes 2 iterations to convergence in Fig. 19 because the second
// confirms the first).
func GLM(x, y *darray.DArray, opts GLMOpts) (*GLMModel, error) {
	if err := darray.CheckCoPartitioned(x, y); err != nil {
		return nil, err
	}
	if y.Cols() != 1 {
		return nil, fmt.Errorf("algos: glm response must have one column, got %d", y.Cols())
	}
	switch opts.Family {
	case Gaussian, Binomial, Poisson:
	case "":
		opts.Family = Gaussian
	default:
		return nil, fmt.Errorf("algos: unknown family %q", opts.Family)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 25
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	p := x.Cols() + 1 // intercept
	_, chunks, err := fitChunks(x, y)
	if err != nil {
		return nil, err
	}
	var parts fitPartials
	beta := make([]float64, p)
	model := &GLMModel{Family: opts.Family}
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Every chunk computes its local XᵀWX (upper triangle) and XᵀWz
		// against the broadcast beta — plus the deviance on the last
		// iteration MaxIter allows — and the partials fold through the
		// deterministic reduction tree (fit.go).
		last := iter == opts.MaxIter-1
		part, err := parts.fold(len(chunks), irlsStride(p), func(i int, out []float64) {
			c := chunks[i]
			irlsChunk(opts.Family, c.rows(c.x), c.rows(c.y), beta, last, out)
		})
		if err != nil {
			return nil, err
		}
		// Unpack the augmented upper triangle, mirrored, and solve.
		xtwx, xtwz := linalg.NewMatrix(p, p), make([]float64, p)
		for a := 0; a < p; a++ {
			row := part[:p+1-a]
			for b := a; b < p; b++ {
				xtwx.Set(a, b, row[b-a])
				xtwx.Set(b, a, row[b-a])
			}
			xtwz[a] = row[p-a]
			part = part[p+1-a:]
		}
		if last {
			model.Deviance = part[0]
		}
		if opts.Ridge > 0 {
			xtwx.AddRidge(opts.Ridge)
		}
		newBeta, err := linalg.CholeskySolve(xtwx, xtwz)
		if err != nil {
			// One stabilization retry with a small ridge.
			xtwx.AddRidge(1e-8)
			newBeta, err = linalg.CholeskySolve(xtwx, xtwz)
			if err != nil {
				return nil, fmt.Errorf("algos: glm normal equations singular: %w", err)
			}
		}
		var change, scale float64
		for i := range beta {
			change += (newBeta[i] - beta[i]) * (newBeta[i] - beta[i])
			scale += newBeta[i] * newBeta[i]
		}
		prev := beta
		beta = newBeta
		model.Iterations = iter + 1
		if change <= opts.Tol*(scale+1e-12) {
			model.Converged = true
			if !last {
				// The one deviance-only pass: at the coefficients this
				// final iteration started from, folded by the same tree.
				dev, err := parts.fold(len(chunks), 1, func(i int, out []float64) {
					c := chunks[i]
					out[0] = rowsDeviance(opts.Family, c.rows(c.x), c.rows(c.y), prev)
				})
				if err != nil {
					return nil, err
				}
				model.Deviance = dev[0]
			}
			break
		}
	}
	model.Coefficients = beta
	return model, nil
}

func binDev(y, mu float64) float64 {
	d := 0.0
	if y > 0 {
		d += y * math.Log(y/mu)
	}
	if y < 1 {
		d += (1 - y) * math.Log((1-y)/(1-mu))
	}
	return 2 * d
}

func poisDev(y, mu float64) float64 {
	if y > 0 {
		return 2 * (y*math.Log(y/mu) - (y - mu))
	}
	return 2 * mu
}

// Predict applies the model to one feature row (without intercept column).
// For Binomial the returned value is the probability of class 1; for
// Poisson the expected count; for Gaussian the linear response.
func (m *GLMModel) Predict(row []float64) float64 {
	eta := m.Coefficients[0]
	for j, v := range row {
		eta += m.Coefficients[j+1] * v
	}
	switch m.Family {
	case Binomial:
		return 1 / (1 + math.Exp(-eta))
	case Poisson:
		return math.Exp(eta)
	default:
		return eta
	}
}

// LM fits ordinary least squares via the Gaussian GLM path (Newton–Raphson
// converges in one solve). This is the Distributed R regression of §7.3.1.
func LM(x, y *darray.DArray) (*GLMModel, error) {
	return GLM(x, y, GLMOpts{Family: Gaussian})
}

// CVResult is one fold's held-out deviance plus the aggregate.
type CVResult struct {
	Folds        int
	FoldDeviance []float64
	MeanDeviance float64
}

// CrossValidate runs k-fold cross-validation of a GLM (cv.hpdglm, Fig. 3
// line 7). Folds are formed by striding rows within every partition so each
// fold spans all workers. Models are trained on k-1 folds (via per-partition
// row masks) and scored on the held-out fold.
func CrossValidate(x, y *darray.DArray, opts GLMOpts, folds int) (*CVResult, error) {
	if folds < 2 {
		return nil, fmt.Errorf("algos: cross-validation needs >= 2 folds")
	}
	if err := darray.CheckCoPartitioned(x, y); err != nil {
		return nil, err
	}
	res := &CVResult{Folds: folds}
	for f := 0; f < folds; f++ {
		trainX, trainY, testX, testY, err := splitFold(x, y, folds, f)
		if err != nil {
			return nil, err
		}
		model, err := GLM(trainX, trainY, opts)
		if err != nil {
			return nil, fmt.Errorf("algos: cv fold %d: %w", f, err)
		}
		// Per-partition deviances land in an index-addressed slice and sum in
		// partition order, keeping the score deterministic under concurrency.
		partDev := make([]float64, testX.NPartitions())
		err = darray.Zip(testX, testY, func(i int, mx, my *darray.Mat) error {
			partDev[i] = rowsDeviance(model.Family, mx.Data, my.Data, model.Coefficients)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var dev float64
		for _, d := range partDev {
			dev += d
		}
		res.FoldDeviance = append(res.FoldDeviance, dev)
		res.MeanDeviance += dev / float64(folds)
	}
	return res, nil
}

// splitFold builds train/test arrays for fold f by striding rows modulo
// folds inside each partition, preserving co-partitioning.
func splitFold(x, y *darray.DArray, folds, f int) (tx, ty, sx, sy *darray.DArray, err error) {
	nparts := x.NPartitions()
	if tx, err = darray.NewLike(x); err != nil {
		return
	}
	if ty, err = darray.NewLike(x); err != nil {
		return
	}
	if sx, err = darray.NewLike(x); err != nil {
		return
	}
	if sy, err = darray.NewLike(x); err != nil {
		return
	}
	for i := 0; i < nparts; i++ {
		mx, err2 := x.Part(i)
		if err2 != nil {
			return nil, nil, nil, nil, err2
		}
		my, err2 := y.Part(i)
		if err2 != nil {
			return nil, nil, nil, nil, err2
		}
		var trIdx, teIdx []int
		for r := 0; r < mx.Rows; r++ {
			if r%folds == f {
				teIdx = append(teIdx, r)
			} else {
				trIdx = append(trIdx, r)
			}
		}
		gather := func(m *darray.Mat, idx []int) *darray.Mat {
			out := darray.NewMat(len(idx), m.Cols)
			for oi, r := range idx {
				copy(out.Row(oi), m.Row(r))
			}
			return out
		}
		if err2 := tx.Fill(i, gather(mx, trIdx)); err2 != nil {
			return nil, nil, nil, nil, err2
		}
		if err2 := ty.Fill(i, gather(my, trIdx)); err2 != nil {
			return nil, nil, nil, nil, err2
		}
		if err2 := sx.Fill(i, gather(mx, teIdx)); err2 != nil {
			return nil, nil, nil, nil, err2
		}
		if err2 := sy.Fill(i, gather(my, teIdx)); err2 != nil {
			return nil, nil, nil, nil, err2
		}
	}
	return tx, ty, sx, sy, nil
}
