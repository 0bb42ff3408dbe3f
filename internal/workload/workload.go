// Package workload generates the synthetic datasets used throughout the
// paper's evaluation: Gaussian point clouds around K planted centers (for
// K-means, §7.3), regression datasets built from known coefficients (§7.3.1
// "we synthetically generated datasets by creating vectors around coefficients
// that we expect to fit the data"), and logistic-regression datasets for the
// hpdglm workflow of Figure 3. All generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// KmeansData is a generated clustering dataset with its planted ground truth.
type KmeansData struct {
	Points  [][]float64 // n rows × d features
	Centers [][]float64 // k planted centers
	Labels  []int       // planted assignment of each point
}

// GenKmeans generates n points in d dimensions around k planted centers with
// per-coordinate Gaussian noise stddev sigma. Centers are spread on a scaled
// hypercube so that clusters are well separated when sigma is small.
func GenKmeans(seed int64, n, d, k int, sigma float64) *KmeansData {
	if n <= 0 || d <= 0 || k <= 0 {
		panic(fmt.Sprintf("workload: invalid kmeans dims n=%d d=%d k=%d", n, d, k))
	}
	r := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for i := range centers {
		c := make([]float64, d)
		for j := range c {
			c[j] = (r.Float64()*2 - 1) * 10 * float64(k)
		}
		centers[i] = c
	}
	points := make([][]float64, n)
	labels := make([]int, n)
	for i := range points {
		ci := r.Intn(k)
		labels[i] = ci
		p := make([]float64, d)
		for j := range p {
			p[j] = centers[ci][j] + r.NormFloat64()*sigma
		}
		points[i] = p
	}
	return &KmeansData{Points: points, Centers: centers, Labels: labels}
}

// RegressionData is a generated linear/logistic dataset with planted
// coefficients (Beta[0] is the intercept).
type RegressionData struct {
	X    [][]float64 // n × d feature matrix (without intercept column)
	Y    []float64   // responses
	Beta []float64   // planted coefficients, len d+1 (intercept first)
}

// GenLinear generates y = β₀ + Σ βⱼ·xⱼ + ε with ε ~ N(0, noise²).
func GenLinear(seed int64, n, d int, noise float64) *RegressionData {
	r := rand.New(rand.NewSource(seed))
	beta := make([]float64, d+1)
	for i := range beta {
		beta[i] = (r.Float64()*2 - 1) * 5
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		v := beta[0]
		for j := 0; j < d; j++ {
			row[j] = r.NormFloat64()
			v += beta[j+1] * row[j]
		}
		x[i] = row
		y[i] = v + r.NormFloat64()*noise
	}
	return &RegressionData{X: x, Y: y, Beta: beta}
}

// GenLogistic generates binary responses with P(y=1) = logistic(β₀ + Σ βⱼxⱼ).
func GenLogistic(seed int64, n, d int) *RegressionData {
	r := rand.New(rand.NewSource(seed))
	beta := make([]float64, d+1)
	for i := range beta {
		beta[i] = (r.Float64()*2 - 1) * 2
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		eta := beta[0]
		for j := 0; j < d; j++ {
			row[j] = r.NormFloat64()
			eta += beta[j+1] * row[j]
		}
		x[i] = row
		p := 1 / (1 + math.Exp(-eta))
		if r.Float64() < p {
			y[i] = 1
		}
	}
	return &RegressionData{X: x, Y: y, Beta: beta}
}

// TableSpec describes a synthetic relational table to materialize into the
// database: named float64 feature columns plus an optional response column.
type TableSpec struct {
	Name     string
	FeatCols []string
	RespCol  string // empty for none
	Rows     int
	Seed     int64
}

// Gen returns the column-oriented data for the spec: features drawn from
// N(0,1) and, when RespCol is set, a linear response over the features using
// coefficients derived from the seed. Returned in column order
// FeatCols..., RespCol.
func (ts TableSpec) Gen() (cols [][]float64, names []string, beta []float64) {
	r := rand.New(rand.NewSource(ts.Seed))
	d := len(ts.FeatCols)
	beta = make([]float64, d+1)
	for i := range beta {
		beta[i] = (r.Float64()*2 - 1) * 3
	}
	cols = make([][]float64, 0, d+1)
	names = append(names, ts.FeatCols...)
	for j := 0; j < d; j++ {
		cols = append(cols, make([]float64, ts.Rows))
	}
	var resp []float64
	if ts.RespCol != "" {
		resp = make([]float64, ts.Rows)
		names = append(names, ts.RespCol)
	}
	for i := 0; i < ts.Rows; i++ {
		v := beta[0]
		for j := 0; j < d; j++ {
			x := r.NormFloat64()
			cols[j][i] = x
			v += beta[j+1] * x
		}
		if resp != nil {
			resp[i] = v + r.NormFloat64()*0.1
		}
	}
	if resp != nil {
		cols = append(cols, resp)
	}
	return cols, names, beta
}
