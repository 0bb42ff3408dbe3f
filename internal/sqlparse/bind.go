package sqlparse

import "fmt"

// BindSelect returns a deep copy of sel with every `?` placeholder replaced
// by the corresponding argument, converted to a literal node. The template is
// never mutated, so one cached parse can serve any number of concurrent
// executions. len(args) must equal sel.NumParams.
//
// Supported argument types mirror the literal grammar: integers (int,
// int64), float64, string and bool.
func BindSelect(sel *Select, args []any) (*Select, error) {
	if len(args) != sel.NumParams {
		return nil, fmt.Errorf("sqlparse: statement has %d placeholders, got %d arguments", sel.NumParams, len(args))
	}
	lits := make([]Expr, len(args))
	for i, a := range args {
		l, err := literalFor(a)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: argument %d: %w", i, err)
		}
		lits[i] = l
	}
	out := &Select{
		From:      sel.From,
		FromAlias: sel.FromAlias,
		Limit:     sel.Limit,
		Profile:   sel.Profile,
		NumParams: 0, // fully bound
	}
	if len(sel.Joins) > 0 {
		out.Joins = make([]Join, len(sel.Joins))
		for i, j := range sel.Joins {
			out.Joins[i] = Join{Table: j.Table, Alias: j.Alias}
			if j.On != nil {
				out.Joins[i].On = bindExpr(j.On, lits)
			}
		}
	}
	out.Items = make([]SelectItem, len(sel.Items))
	for i, it := range sel.Items {
		out.Items[i] = SelectItem{Star: it.Star, Alias: it.Alias}
		if it.Expr != nil {
			out.Items[i].Expr = bindExpr(it.Expr, lits)
		}
	}
	if sel.Where != nil {
		out.Where = bindExpr(sel.Where, lits)
	}
	out.GroupBy = append([]string(nil), sel.GroupBy...)
	out.OrderBy = append([]OrderItem(nil), sel.OrderBy...)
	return out, nil
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

// bindExpr deep-copies e, substituting lits[i] for Placeholder{Idx: i}.
// Literal leaves are immutable and shared rather than copied.
func bindExpr(e Expr, lits []Expr) Expr {
	switch x := e.(type) {
	case *Placeholder:
		if x.Idx >= 0 && x.Idx < len(lits) {
			return lits[x.Idx]
		}
		return x // out of range: left for the evaluator to reject
	case *Binary:
		return &Binary{Op: x.Op, L: bindExpr(x.L, lits), R: bindExpr(x.R, lits)}
	case *Unary:
		return &Unary{Op: x.Op, X: bindExpr(x.X, lits)}
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Star: x.Star}
		if len(x.Args) > 0 {
			out.Args = make([]Expr, len(x.Args))
			for i, a := range x.Args {
				out.Args[i] = bindExpr(a, lits)
			}
		}
		if x.Params != nil {
			out.Params = make(map[string]Expr, len(x.Params))
			for k, v := range x.Params {
				out.Params[k] = bindExpr(v, lits)
			}
		}
		if x.Over != nil {
			ov := &Over{PartitionBest: x.Over.PartitionBest}
			ov.PartitionBy = append([]string(nil), x.Over.PartitionBy...)
			out.Over = ov
		}
		return out
	default:
		// ColRef, NumberLit, StringLit, BoolLit: immutable leaves.
		return e
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
