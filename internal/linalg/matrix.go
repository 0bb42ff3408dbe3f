// Package linalg provides the small dense linear-algebra substrate used by
// the distributed machine-learning algorithms (GLM via Newton–Raphson, linear
// regression, K-means) and by the single-threaded R baseline (QR
// decomposition). Matrices are row-major and sized for model dimensions
// (typically ≤ a few hundred columns), not for bulk data.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"verticadr/internal/parallel"
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero-valued rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add accumulates other into m element-wise. Dimensions must match.
func (m *Matrix) Add(other *Matrix) error {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return fmt.Errorf("linalg: add dimension mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	for i := range m.Data {
		m.Data[i] += other.Data[i]
	}
	return nil
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// mulParThreshold is the flop count (rows × cols × ocols) above which Mul
// row-blocks across the worker pool. Output rows are disjoint and each row's
// inner arithmetic is untouched, so the parallel product is bit-identical to
// the serial one; below the threshold the goroutine overhead isn't worth it.
const mulParThreshold = 1 << 16

// Mul returns m × other. Large products compute row blocks on the process
// worker pool; the result is bitwise identical at every degree.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("linalg: mul dimension mismatch %dx%d × %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMatrix(m.Rows, other.Cols)
	mulRows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mrow := m.Row(i)
			orow := out.Row(i)
			for k := 0; k < m.Cols; k++ {
				a := mrow[k]
				if a == 0 {
					continue
				}
				brow := other.Row(k)
				for j := range orow {
					orow[j] += a * brow[j]
				}
			}
		}
	}
	pool := parallel.Default()
	deg := pool.Degree()
	if deg <= 1 || m.Rows < 2 || m.Rows*m.Cols*other.Cols < mulParThreshold {
		mulRows(0, m.Rows)
		return out, nil
	}
	if deg > m.Rows {
		deg = m.Rows
	}
	blk := (m.Rows + deg - 1) / deg
	nblocks := (m.Rows + blk - 1) / blk
	err := pool.ForEach(nblocks, func(bi int) error {
		lo := bi * blk
		hi := lo + blk
		if hi > m.Rows {
			hi = m.Rows
		}
		mulRows(lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ErrNotPositiveDefinite is returned by CholeskySolve when the system matrix
// is singular or not positive definite (e.g. collinear features).
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// CholeskySolve solves A·x = b for symmetric positive-definite A, in-place
// factoring a copy of A. This is the solver used by the Newton–Raphson GLM
// step (A = XᵀWX, b = XᵀWz).
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: cholesky needs square matrix, got %dx%d", n, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: cholesky rhs length %d, want %d", len(b), n)
	}
	l := a.Clone()
	// Factor: L lower-triangular with A = L·Lᵀ.
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	// Forward solve L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// QRSolve solves the least-squares problem min ‖A·x − b‖₂ via Householder QR.
// It is deliberately the textbook dense decomposition: the paper notes that
// stock R implements lm() this way, while Distributed R uses Newton–Raphson;
// the single-threaded baseline (internal/rbaseline) calls this.
func QRSolve(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: qr rhs length %d, want %d", len(b), m)
	}
	if m < n {
		return nil, fmt.Errorf("linalg: qr underdetermined system %dx%d", m, n)
	}
	r := a.Clone()
	rhs := make([]float64, m)
	copy(rhs, b)
	for k := 0; k < n; k++ {
		// Householder vector for column k.
		var norm float64
		for i := k; i < m; i++ {
			norm += r.At(i, k) * r.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, errors.New("linalg: rank-deficient matrix in QR")
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		v := make([]float64, m-k)
		for i := k; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		v[0] -= norm
		vnorm := Norm2(v)
		if vnorm == 0 {
			continue
		}
		for i := range v {
			v[i] /= vnorm
		}
		// Apply H = I − 2vvᵀ to remaining columns of R and to rhs.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-2*dot*v[i-k])
			}
		}
		var dot float64
		for i := k; i < m; i++ {
			dot += v[i-k] * rhs[i]
		}
		for i := k; i < m; i++ {
			rhs[i] -= 2 * dot * v[i-k]
		}
	}
	// Back substitution on the upper-triangular R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			return nil, errors.New("linalg: singular R in QR back substitution")
		}
		x[i] = s / d
	}
	return x, nil
}

// AddRidge adds lambda to the diagonal (Tikhonov regularization; also used to
// nudge nearly singular normal equations to positive definiteness).
func (m *Matrix) AddRidge(lambda float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+lambda)
	}
}
