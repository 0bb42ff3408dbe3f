// Package sqlexec executes parsed SQL statements against the MPP database:
// batch-at-a-time expression evaluation, predicate pushdown into segment
// scans, parallel per-segment execution, hash aggregation, ordering, and the
// UDTF operator that powers ExportToDistributedR and the in-database
// prediction functions (OVER (PARTITION BEST / PARTITION BY ...)).
package sqlexec

import (
	"fmt"
	"strings"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/verr"
)

// evalExpr evaluates an expression over a batch, returning one vector with
// b.Len() values (literals are broadcast).
func evalExpr(e sqlparse.Expr, b *colstore.Batch) (*colstore.Vector, error) {
	n := b.Len()
	switch x := e.(type) {
	case *sqlparse.ColRef:
		i := b.Schema.ColIndex(x.Name)
		if i < 0 {
			return nil, fmt.Errorf("sqlexec: %w %q", verr.ErrUnknownColumn, x.Name)
		}
		return b.Cols[i], nil
	case *sqlparse.NumberLit:
		if x.IsInt {
			v := make([]int64, n)
			for i := range v {
				v[i] = x.Int
			}
			return colstore.IntVector(v), nil
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = x.Float
		}
		return colstore.FloatVector(v), nil
	case *sqlparse.StringLit:
		v := make([]string, n)
		for i := range v {
			v[i] = x.Val
		}
		return colstore.StringVector(v), nil
	case *sqlparse.BoolLit:
		v := make([]bool, n)
		for i := range v {
			v[i] = x.Val
		}
		return colstore.BoolVector(v), nil
	case *sqlparse.Unary:
		return evalUnary(x, b)
	case *sqlparse.Binary:
		return evalBinary(x, b)
	case *sqlparse.FuncCall:
		return evalScalarFunc(x, b)
	case *sqlparse.Placeholder:
		return nil, fmt.Errorf("sqlexec: unbound placeholder ?%d (prepare and execute with arguments)", x.Idx)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported expression %T", e)
	}
}

func evalUnary(x *sqlparse.Unary, b *colstore.Batch) (*colstore.Vector, error) {
	v, err := evalExpr(x.X, b)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "-":
		switch v.Type {
		case colstore.TypeInt64:
			out := make([]int64, len(v.Ints))
			for i, a := range v.Ints {
				out[i] = -a
			}
			return colstore.IntVector(out), nil
		case colstore.TypeFloat64:
			out := make([]float64, len(v.Floats))
			for i, a := range v.Floats {
				out[i] = -a
			}
			return colstore.FloatVector(out), nil
		}
		return nil, fmt.Errorf("sqlexec: unary minus on %v", v.Type)
	case "NOT":
		if v.Type != colstore.TypeBool {
			return nil, fmt.Errorf("sqlexec: NOT on %v", v.Type)
		}
		out := make([]bool, len(v.Bools))
		for i, a := range v.Bools {
			out[i] = !a
		}
		return colstore.BoolVector(out), nil
	}
	return nil, fmt.Errorf("sqlexec: unknown unary op %q", x.Op)
}

func evalBinary(x *sqlparse.Binary, b *colstore.Batch) (*colstore.Vector, error) {
	l, err := evalExpr(x.L, b)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(x.R, b)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+", "-", "*", "/":
		return evalArith(x.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		return evalCompare(x.Op, l, r)
	case "AND", "OR":
		if l.Type != colstore.TypeBool || r.Type != colstore.TypeBool {
			return nil, fmt.Errorf("sqlexec: %s requires booleans", x.Op)
		}
		out := make([]bool, len(l.Bools))
		for i := range out {
			if x.Op == "AND" {
				out[i] = l.Bools[i] && r.Bools[i]
			} else {
				out[i] = l.Bools[i] || r.Bools[i]
			}
		}
		return colstore.BoolVector(out), nil
	}
	return nil, fmt.Errorf("sqlexec: unknown binary op %q", x.Op)
}

func toFloats(v *colstore.Vector) ([]float64, error) {
	switch v.Type {
	case colstore.TypeFloat64:
		return v.Floats, nil
	case colstore.TypeInt64:
		out := make([]float64, len(v.Ints))
		for i, a := range v.Ints {
			out[i] = float64(a)
		}
		return out, nil
	}
	return nil, fmt.Errorf("sqlexec: expected numeric column, got %v", v.Type)
}

func evalArith(op string, l, r *colstore.Vector) (*colstore.Vector, error) {
	// Integer arithmetic stays integral except division, which is FLOAT.
	if l.Type == colstore.TypeInt64 && r.Type == colstore.TypeInt64 && op != "/" {
		out := make([]int64, len(l.Ints))
		for i := range out {
			switch op {
			case "+":
				out[i] = l.Ints[i] + r.Ints[i]
			case "-":
				out[i] = l.Ints[i] - r.Ints[i]
			case "*":
				out[i] = l.Ints[i] * r.Ints[i]
			}
		}
		return colstore.IntVector(out), nil
	}
	lf, err := toFloats(l)
	if err != nil {
		return nil, err
	}
	rf, err := toFloats(r)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(lf))
	for i := range out {
		switch op {
		case "+":
			out[i] = lf[i] + rf[i]
		case "-":
			out[i] = lf[i] - rf[i]
		case "*":
			out[i] = lf[i] * rf[i]
		case "/":
			out[i] = lf[i] / rf[i]
		}
	}
	return colstore.FloatVector(out), nil
}

// evalCompare compares two vectors row by row, through colstore's typed
// kernels: CompareValues' order and widening, and its error for types that do
// not compare, whatever the row count.
func evalCompare(op string, l, r *colstore.Vector) (*colstore.Vector, error) {
	n := l.Len()
	if r.Len() != n {
		return nil, fmt.Errorf("sqlexec: comparison length mismatch")
	}
	cop, ok := colstore.ParseCompareOp(op)
	if !ok {
		return nil, fmt.Errorf("sqlexec: unknown comparison %q", op)
	}
	out := make([]bool, n)
	if err := colstore.CompareVectors(cop, l, r, out); err != nil {
		return nil, err
	}
	return colstore.BoolVector(out), nil
}

// evalScalarFunc handles the built-in scalar functions usable in any
// expression position (aggregates are intercepted by the aggregation path
// before reaching here).
func evalScalarFunc(x *sqlparse.FuncCall, b *colstore.Batch) (*colstore.Vector, error) {
	if x.Over != nil {
		return nil, fmt.Errorf("sqlexec: analytic function %s not allowed in this context", x.Name)
	}
	if plan.IsAggregateFunc(x.Name) {
		return nil, fmt.Errorf("sqlexec: aggregate %s not allowed in this context", x.Name)
	}
	switch x.Name {
	case "ABS", "SQRT", "FLOOR", "CEIL", "LN", "EXP":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sqlexec: %s takes one argument", x.Name)
		}
		v, err := evalExpr(x.Args[0], b)
		if err != nil {
			return nil, err
		}
		fs, err := toFloats(v)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(fs))
		for i, a := range fs {
			out[i] = applyMath(x.Name, a)
		}
		return colstore.FloatVector(out), nil
	case "UPPER", "LOWER":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sqlexec: %s takes one argument", x.Name)
		}
		v, err := evalExpr(x.Args[0], b)
		if err != nil {
			return nil, err
		}
		if v.Type != colstore.TypeString {
			return nil, fmt.Errorf("sqlexec: %s requires VARCHAR", x.Name)
		}
		out := make([]string, len(v.Strs))
		for i, s := range v.Strs {
			if x.Name == "UPPER" {
				out[i] = strings.ToUpper(s)
			} else {
				out[i] = strings.ToLower(s)
			}
		}
		return colstore.StringVector(out), nil
	}
	return nil, fmt.Errorf("sqlexec: unknown function %s", x.Name)
}

func applyMath(name string, a float64) float64 {
	switch name {
	case "ABS":
		if a < 0 {
			return -a
		}
		return a
	case "SQRT":
		return sqrt(a)
	case "FLOOR":
		return floor(a)
	case "CEIL":
		return ceil(a)
	case "LN":
		return ln(a)
	case "EXP":
		return exp(a)
	}
	return a
}

// exprName derives an output column name for an unaliased projection.
func exprName(e sqlparse.Expr, pos int) string {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		return x.Name
	case *sqlparse.FuncCall:
		return strings.ToLower(x.Name)
	default:
		return fmt.Sprintf("col%d", pos)
	}
}

// Literal evaluates a constant expression: plain literals plus unary minus
// over numbers. Used by INSERT ... VALUES and parameter resolution.
func Literal(e sqlparse.Expr) (any, bool) {
	if u, ok := e.(*sqlparse.Unary); ok && u.Op == "-" {
		v, ok := Literal(u.X)
		if !ok {
			return nil, false
		}
		switch x := v.(type) {
		case int64:
			return -x, true
		case float64:
			return -x, true
		}
		return nil, false
	}
	return literalValue(e)
}

func literalValue(e sqlparse.Expr) (any, bool) {
	switch x := e.(type) {
	case *sqlparse.NumberLit:
		if x.IsInt {
			return x.Int, true
		}
		return x.Float, true
	case *sqlparse.StringLit:
		return x.Val, true
	case *sqlparse.BoolLit:
		return x.Val, true
	}
	return nil, false
}
