package sqlexec

import (
	"math"
	"testing"
	"testing/quick"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

func testBatch() *colstore.Batch {
	return &colstore.Batch{
		Schema: colstore.Schema{
			{Name: "i", Type: colstore.TypeInt64},
			{Name: "f", Type: colstore.TypeFloat64},
			{Name: "s", Type: colstore.TypeString},
			{Name: "b", Type: colstore.TypeBool},
		},
		Cols: []*colstore.Vector{
			colstore.IntVector([]int64{1, 2, 3}),
			colstore.FloatVector([]float64{0.5, -1.5, 2.0}),
			colstore.StringVector([]string{"a", "B", "c"}),
			colstore.BoolVector([]bool{true, false, true}),
		},
	}
}

func expr(t *testing.T, s string) sqlparse.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("SELECT " + s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return stmt.(*sqlparse.Select).Items[0].Expr
}

func evalOne(t *testing.T, s string) *colstore.Vector {
	t.Helper()
	v, err := evalExpr(expr(t, s), testBatch())
	if err != nil {
		t.Fatalf("eval %q: %v", s, err)
	}
	return v
}

func TestEvalColumnAndLiterals(t *testing.T) {
	if v := evalOne(t, "i"); v.Ints[2] != 3 {
		t.Fatal("col ref")
	}
	if v := evalOne(t, "42"); v.Type != colstore.TypeInt64 || v.Ints[0] != 42 || v.Len() != 3 {
		t.Fatal("int literal broadcast")
	}
	if v := evalOne(t, "1.5"); v.Floats[1] != 1.5 {
		t.Fatal("float literal")
	}
	if v := evalOne(t, "'x'"); v.Strs[2] != "x" {
		t.Fatal("string literal")
	}
	if v := evalOne(t, "TRUE"); !v.Bools[0] {
		t.Fatal("bool literal")
	}
}

func TestEvalArithmeticTyping(t *testing.T) {
	// int op int stays int except division.
	if v := evalOne(t, "i + 1"); v.Type != colstore.TypeInt64 || v.Ints[0] != 2 {
		t.Fatalf("int add: %+v", v)
	}
	if v := evalOne(t, "i * i"); v.Ints[2] != 9 {
		t.Fatal("int mul")
	}
	if v := evalOne(t, "i / 2"); v.Type != colstore.TypeFloat64 || v.Floats[0] != 0.5 {
		t.Fatalf("division must be float: %+v", v)
	}
	// Mixed int/float widens.
	if v := evalOne(t, "i + f"); v.Type != colstore.TypeFloat64 || v.Floats[0] != 1.5 {
		t.Fatal("mixed widening")
	}
	if v := evalOne(t, "-f"); v.Floats[1] != 1.5 {
		t.Fatal("unary minus")
	}
	if v := evalOne(t, "-i"); v.Type != colstore.TypeInt64 || v.Ints[0] != -1 {
		t.Fatal("unary minus int")
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	if v := evalOne(t, "i >= 2"); v.Bools[0] || !v.Bools[1] || !v.Bools[2] {
		t.Fatalf("compare: %v", v.Bools)
	}
	if v := evalOne(t, "i = 2 OR i = 3"); v.Bools[0] || !v.Bools[1] {
		t.Fatal("or")
	}
	if v := evalOne(t, "b AND i < 3"); !v.Bools[0] || v.Bools[2] {
		t.Fatal("and")
	}
	if v := evalOne(t, "NOT b"); v.Bools[0] || !v.Bools[1] {
		t.Fatal("not")
	}
	if v := evalOne(t, "s <> 'a'"); v.Bools[0] || !v.Bools[1] {
		t.Fatal("string compare")
	}
	// int vs float numeric comparison.
	if v := evalOne(t, "i > f"); !v.Bools[0] || !v.Bools[1] {
		t.Fatal("cross-type compare")
	}
}

// TestEvalCompareMatchesCompareValues: evalCompare's typed kernels agree with
// the boxed CompareValues row for row, for every operator and every pair of
// column types — NaN (equal to everything), ±0, ±Inf, INTEGERs past 2^53
// widened to FLOAT exactly as CompareValues widens them, int64 extremes — and
// a pair that does not compare fails with CompareValues' error, over no rows
// as over many.
func TestEvalCompareMatchesCompareValues(t *testing.T) {
	pools := []*colstore.Vector{
		colstore.IntVector([]int64{math.MinInt64, math.MinInt64 + 1, -1<<53 - 1, -1 << 53, -1, 0, 1, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64}),
		colstore.FloatVector([]float64{math.NaN(), math.Float64frombits(0x7ff8deadbeef0001), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
			-1 << 53, 1 << 53, 1<<53 + 2, 1 << 63, -1 << 63, 0.5, -1.5, 1, math.MaxFloat64, math.SmallestNonzeroFloat64}),
		colstore.StringVector([]string{"", "a", "B", "a\x00b", "ab"}),
		colstore.BoolVector([]bool{false, true}),
	}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for _, a := range pools {
		for _, b := range pools {
			// Every pair of values: l[i] against r[i].
			l, r := colstore.NewVector(a.Type, 0), colstore.NewVector(b.Type, 0)
			for i := 0; i < a.Len(); i++ {
				for j := 0; j < b.Len(); j++ {
					if err := l.AppendValue(a.Value(i)); err != nil {
						t.Fatal(err)
					}
					if err := r.AppendValue(b.Value(j)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, op := range ops {
				cop, _ := colstore.ParseCompareOp(op)
				got, err := evalCompare(op, l, r)
				_, wantErr := colstore.CompareValues(a.Value(0), b.Value(0))
				if wantErr != nil {
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%v %s %v: error %v, CompareValues %v", a.Type, op, b.Type, err, wantErr)
					}
					empty := colstore.NewVector(a.Type, 0)
					if _, err := evalCompare(op, empty, colstore.NewVector(b.Type, 0)); err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%v %s %v over no rows: error %v, want %v", a.Type, op, b.Type, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v %s %v: %v", a.Type, op, b.Type, err)
				}
				for i := 0; i < l.Len(); i++ {
					c, _ := colstore.CompareValues(l.Value(i), r.Value(i))
					if got.Bools[i] != cop.Match(c) {
						t.Fatalf("%v %s %v is %v, CompareValues says %d", l.Value(i), op, r.Value(i), got.Bools[i], c)
					}
				}
			}
		}
	}
}

func TestEvalScalarFunctions(t *testing.T) {
	if v := evalOne(t, "abs(f)"); v.Floats[1] != 1.5 {
		t.Fatal("abs")
	}
	if v := evalOne(t, "sqrt(i + 1)"); math.Abs(v.Floats[2]-2) > 1e-12 {
		t.Fatal("sqrt")
	}
	if v := evalOne(t, "floor(f)"); v.Floats[0] != 0 || v.Floats[1] != -2 {
		t.Fatal("floor")
	}
	if v := evalOne(t, "ceil(f)"); v.Floats[0] != 1 {
		t.Fatal("ceil")
	}
	if v := evalOne(t, "exp(0)"); v.Floats[0] != 1 {
		t.Fatal("exp")
	}
	if v := evalOne(t, "ln(exp(1))"); math.Abs(v.Floats[0]-1) > 1e-12 {
		t.Fatal("ln")
	}
	if v := evalOne(t, "upper(s)"); v.Strs[0] != "A" {
		t.Fatal("upper")
	}
	if v := evalOne(t, "lower(s)"); v.Strs[1] != "b" {
		t.Fatal("lower")
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"zzz",         // unknown column
		"i AND b",     // AND on non-bool
		"NOT i",       // NOT on non-bool
		"-s",          // minus on string
		"s + 1",       // arithmetic on string
		"abs(s)",      // math on string
		"upper(i)",    // upper on int
		"abs(i, i)",   // arity
		"nosuchfn(i)", // unknown function
		"sum(i)",      // aggregate outside aggregation context
		"i = b",       // incomparable types
	}
	for _, s := range bad {
		if _, err := evalExpr(expr(t, s), testBatch()); err == nil {
			t.Fatalf("expected error for %q", s)
		}
	}
}

// Property: evaluating `i + C` always adds C to every row of any int column.
func TestQuickEvalAddConstant(t *testing.T) {
	f := func(vals []int64, c int16) bool {
		b := &colstore.Batch{
			Schema: colstore.Schema{{Name: "i", Type: colstore.TypeInt64}},
			Cols:   []*colstore.Vector{colstore.IntVector(vals)},
		}
		e := &sqlparse.Binary{
			Op: "+",
			L:  &sqlparse.ColRef{Name: "i"},
			R:  &sqlparse.NumberLit{IsInt: true, Int: int64(c)},
		}
		v, err := evalExpr(e, b)
		if err != nil || v.Len() != len(vals) {
			return false
		}
		for i := range vals {
			if v.Ints[i] != vals[i]+int64(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison results partition rows — (x < c) XOR (x >= c) is
// always true.
func TestQuickComparisonPartition(t *testing.T) {
	f := func(vals []float64, c float64) bool {
		b := &colstore.Batch{
			Schema: colstore.Schema{{Name: "f", Type: colstore.TypeFloat64}},
			Cols:   []*colstore.Vector{colstore.FloatVector(vals)},
		}
		lt, err1 := evalExpr(&sqlparse.Binary{Op: "<", L: &sqlparse.ColRef{Name: "f"}, R: &sqlparse.NumberLit{Float: c}}, b)
		ge, err2 := evalExpr(&sqlparse.Binary{Op: ">=", L: &sqlparse.ColRef{Name: "f"}, R: &sqlparse.NumberLit{Float: c}}, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range vals {
			if lt.Bools[i] == ge.Bools[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
