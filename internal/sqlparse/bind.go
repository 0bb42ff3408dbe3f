package sqlparse

import "fmt"

// BindSelect returns sel with every `?` placeholder replaced by the
// corresponding argument, converted to a literal node: a rewrite (Rewrite)
// that copies only the paths down to the placeholders and shares the rest
// with sel, which stays as it was, so one cached parse can serve any number
// of concurrent executions. len(args) must equal sel.NumParams.
//
// Supported argument types mirror the literal grammar: integers (int,
// int64), float64, string and bool.
func BindSelect(sel *Select, args []any) (*Select, error) {
	if len(args) != sel.NumParams {
		return nil, fmt.Errorf("sqlparse: statement has %d placeholders, got %d arguments", sel.NumParams, len(args))
	}
	if len(args) == 0 {
		return sel, nil
	}
	bind, err := binder(args)
	if err != nil {
		return nil, err
	}
	bound, _ := RewriteSelect(sel, bind, nil) // it cannot fail
	if bound == sel {                         // a hand-built count with no placeholder behind it
		c := *sel
		bound = &c
	}
	bound.NumParams = 0 // a copy of sel's made here, not yet shared
	return bound, nil
}

// BindExpr is BindSelect for one expression of a statement: every `?` in e
// replaced by its argument as a literal, the rest shared with e.
func BindExpr(e Expr, args []any) (Expr, error) {
	bind, err := binder(args)
	if err != nil {
		return nil, err
	}
	return Rewrite(e, bind)
}

// CheckArgs reports the error BindSelect would return for args bound to a
// statement with n placeholders, without binding anything.
func CheckArgs(n int, args []any) error {
	if len(args) != n {
		return fmt.Errorf("sqlparse: statement has %d placeholders, got %d arguments", n, len(args))
	}
	for i, a := range args {
		if _, ok := ArgValue(a); !ok {
			_, err := literalFor(a)
			return fmt.Errorf("sqlparse: argument %d: %w", i, err)
		}
	}
	return nil
}

// ArgValue is the value an argument binds as, the one Literal reads back
// from its literal: int64, float64, string or bool.
func ArgValue(a any) (any, bool) {
	switch v := a.(type) {
	case int:
		return int64(v), true
	case int64, float64, string, bool:
		return v, true
	}
	return nil, false
}

// binder returns the rewrite that puts each argument, as a literal, in the
// place of its placeholder.
func binder(args []any) (func(Expr) (Expr, error), error) {
	lits := make([]Expr, len(args))
	for i, a := range args {
		l, err := literalFor(a)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: argument %d: %w", i, err)
		}
		lits[i] = l
	}
	return func(e Expr) (Expr, error) {
		// A placeholder out of range is left for the evaluator to reject.
		if p, ok := e.(*Placeholder); ok && p.Idx >= 0 && p.Idx < len(lits) {
			return lits[p.Idx], nil
		}
		return e, nil
	}, nil
}

func literalFor(a any) (Expr, error) {
	switch v := a.(type) {
	case nil:
		return nil, fmt.Errorf("nil argument")
	case int:
		return &NumberLit{IsInt: true, Int: int64(v)}, nil
	case int64:
		return &NumberLit{IsInt: true, Int: v}, nil
	case float64:
		return &NumberLit{Float: v}, nil
	case string:
		return &StringLit{Val: v}, nil
	case bool:
		return &BoolLit{Val: v}, nil
	default:
		return nil, fmt.Errorf("unsupported argument type %T", a)
	}
}

// Literal evaluates a constant expression — a literal, or unary minus over a
// numeric one — to the Go value BindSelect would bind for it: int64,
// float64, string or bool. Anything else is not a literal. INSERT ... VALUES
// rows, USING PARAMETERS values and the planner's storage predicates all
// read their constants through it.
func Literal(e Expr) (any, bool) {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return x.Int, true
		}
		return x.Float, true
	case *StringLit:
		return x.Val, true
	case *BoolLit:
		return x.Val, true
	case *Unary:
		if x.Op != "-" {
			return nil, false
		}
		switch v, _ := Literal(x.X); n := v.(type) {
		case int64:
			return -n, true
		case float64:
			return -n, true
		}
	}
	return nil, false
}
