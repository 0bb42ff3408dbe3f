package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("got %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set did not stick")
	}
	if got := m.Row(1); got[0] != 4 || got[2] != 6 {
		t.Fatalf("Row(1)=%v", got)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty input should give 0x0, got %dx%d", m.Rows, m.Cols)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("mul (%d,%d)=%v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestAddScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{3, 4}})
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 4 || a.At(0, 1) != 6 {
		t.Fatalf("add = %v", a.Data)
	}
	a.Scale(0.5)
	if a.At(0, 0) != 2 || a.At(0, 1) != 3 {
		t.Fatalf("scale = %v", a.Data)
	}
	if err := a.Add(NewMatrix(2, 2)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2]
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := CholeskySolve(a, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1.5, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("cholesky solution %v", x)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := CholeskySolve(a, []float64{1, 1}); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestQRSolveExact(t *testing.T) {
	// Square nonsingular system: exact solve.
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := QRSolve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 3, 1e-10) {
		t.Fatalf("qr solution %v", x)
	}
}

func TestQRSolveLeastSquares(t *testing.T) {
	// Overdetermined: fit y = 2x + 1 through noiseless points.
	rows := [][]float64{}
	var ys []float64
	for i := 0; i < 20; i++ {
		x := float64(i)
		rows = append(rows, []float64{1, x})
		ys = append(ys, 1+2*x)
	}
	a, _ := FromRows(rows)
	beta, err := QRSolve(a, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 1, 1e-9) || !almostEq(beta[1], 2, 1e-9) {
		t.Fatalf("qr least squares %v", beta)
	}
}

func TestQRUnderdetermined(t *testing.T) {
	a := NewMatrix(1, 3)
	if _, err := QRSolve(a, []float64{1}); err == nil {
		t.Fatal("expected underdetermined error")
	}
}

// Property: Cholesky and QR agree on random SPD systems.
func TestQuickCholeskyQRAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		// Build SPD A = MᵀM + I.
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		a, _ := m.T().Mul(m)
		a.AddRidge(1)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err1 := CholeskySolve(a, b)
		x2, err2 := QRSolve(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-6*(1+math.Abs(x1[i]))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: solving then multiplying recovers b.
func TestQuickCholeskyResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		a, _ := m.T().Mul(m)
		a.AddRidge(0.5)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x, err := CholeskySolve(a, b)
		if err != nil {
			return false
		}
		for i := range b {
			var got float64
			for j, aij := range a.Row(i) {
				got += aij * x[j]
			}
			if !almostEq(got, b[i], 1e-7*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotNormSqDist(t *testing.T) {
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("norm2")
	}
	if SqDist([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Fatal("sqdist")
	}
}

func TestAddRidge(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddRidge(2.5)
	if m.At(0, 0) != 2.5 || m.At(1, 1) != 2.5 || m.At(0, 1) != 0 {
		t.Fatalf("ridge = %v", m.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares backing array")
	}
}
