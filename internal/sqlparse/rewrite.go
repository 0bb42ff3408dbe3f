package sqlparse

import (
	"errors"
	"maps"
	"slices"
)

// SkipChildren, returned as the error of a Rewrite function, keeps the node
// the function was given and leaves that node's children unvisited.
var SkipChildren = errors.New("sqlparse: skip children")

// Rewrite is the one traversal of an expression tree. Nothing writes to a
// tree once Parse returns it: a rewrite is a copy. Rewrite calls f on e
// before e's children, and f returns the node to stand in e's place. When
// that is e itself, Rewrite goes on into e's children — an operator's
// operands, a call's arguments, then its USING PARAMETERS values in key
// order — and copies
// e only if one of them changed; any other node f returns is taken as it is.
// A rewrite therefore allocates only the path down to what it changed, and
// one that changes nothing returns e without allocating, which makes Rewrite
// the read-only walk too. The first error f returns ends the walk.
func Rewrite(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	r, err := f(e)
	if err == SkipChildren {
		return e, nil
	}
	if err != nil || r != e {
		return r, err
	}
	switch x := e.(type) {
	case *Unary:
		c, err := Rewrite(x.X, f)
		if err != nil || c == x.X {
			return e, err
		}
		return &Unary{Op: x.Op, X: c}, nil
	case *Binary:
		l, err := Rewrite(x.L, f)
		if err != nil {
			return e, err
		}
		r, err := Rewrite(x.R, f)
		if err != nil || l == x.L && r == x.R {
			return e, err
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *FuncCall:
		args, changed, err := mapSlice(x.Args, func(a Expr) (Expr, error) { return Rewrite(a, f) })
		if err != nil {
			return e, err
		}
		var params map[string]Expr
		var keys [8]string
		for _, k := range x.AppendParamKeys(keys[:0]) {
			v := x.Params[k]
			w, err := Rewrite(v, f)
			if err != nil {
				return e, err
			}
			if w != v && params == nil {
				params = maps.Clone(x.Params)
			}
			if params != nil {
				params[k] = w
			}
		}
		if !changed && params == nil {
			return e, nil
		}
		c := *x
		c.Args = args
		if params != nil {
			c.Params = params
		}
		return &c, nil
	}
	return e, nil
}

// RewriteSelect returns sel with Rewrite(·, f) applied to each projection,
// the WHERE clause and each join's ON condition, and name, when it is not
// nil, to each GROUP BY and ORDER BY column. An error name returns for a
// GROUP BY column fails the rewrite; an ORDER BY column it fails on may name
// an output alias, and stays as written. The result is sel itself when
// nothing changed, otherwise a copy sharing every part that did not; its
// slices are capped, so an append to one never writes into sel's.
func RewriteSelect(sel *Select, f func(Expr) (Expr, error), name func(string) (string, error)) (*Select, error) {
	items, itemsChanged, err := mapSlice(sel.Items, func(it SelectItem) (SelectItem, error) {
		e, err := Rewrite(it.Expr, f)
		return SelectItem{Star: it.Star, Expr: e, Alias: it.Alias}, err
	})
	if err != nil {
		return nil, err
	}
	where, err := Rewrite(sel.Where, f)
	if err != nil {
		return nil, err
	}
	joins, joinsChanged, err := mapSlice(sel.Joins, func(j Join) (Join, error) {
		on, err := Rewrite(j.On, f)
		return Join{Table: j.Table, Alias: j.Alias, On: on}, err
	})
	if err != nil {
		return nil, err
	}
	if name == nil {
		name = func(s string) (string, error) { return s, nil }
	}
	groupBy, groupChanged, err := mapSlice(sel.GroupBy, name)
	if err != nil {
		return nil, err
	}
	orderBy, orderChanged, _ := mapSlice(sel.OrderBy, func(o OrderItem) (OrderItem, error) {
		if n, err := name(o.Col); err == nil {
			return OrderItem{Col: n, Desc: o.Desc}, nil
		}
		return o, nil
	})
	if !itemsChanged && !joinsChanged && !groupChanged && !orderChanged && where == sel.Where {
		return sel, nil
	}
	out := *sel
	out.Items, out.Where, out.Joins, out.GroupBy, out.OrderBy = items, where, joins, groupBy, orderBy
	return &out, nil
}

// mapSlice returns s with f applied to each element, capped, and whether
// that took a copy of s: it does at the first element f changes.
func mapSlice[T comparable](s []T, f func(T) (T, error)) ([]T, bool, error) {
	out, copied := slices.Clip(s), false
	for i, v := range s {
		w, err := f(v)
		if err != nil {
			return nil, false, err
		}
		if w != v && !copied {
			out, copied = slices.Clip(slices.Clone(s)), true
		}
		if copied {
			out[i] = w
		}
	}
	return out, copied, nil
}
