package plan

import (
	"fmt"
	"slices"
	"sync/atomic"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

// A prepared statement is planned once. Build plans the template itself,
// placeholders and all; the plan is generic unless Custom, and each
// execution runs Bind's copy of it with its arguments in the storage
// predicates' slots, the template's plan never written. Fits says when
// the tables have moved far enough from what the plan was built against
// for it to be rebuilt.

// Memo is an executor's cache on a plan node, filled at the plan's first
// execution and shared by every later one: Bind's copies share it.
type Memo struct{ v atomic.Value }

// Load returns what Store left: nil before that, or on a nil Memo.
func (m *Memo) Load() any {
	if m == nil {
		return nil
	}
	return m.v.Load()
}

// Store keeps v, which must depend on nothing but the plan and the
// definitions of its Tables. Every value stored in one Memo is of one
// type; a nil Memo keeps nothing.
func (m *Memo) Store(v any) {
	if m != nil {
		m.v.Store(v)
	}
}

// Executable returns the error of running a template's plan unbound.
func (p *Plan) Executable() error {
	if p.Params > 0 {
		return fmt.Errorf("plan: %d unbound placeholder(s) (prepare and execute with arguments)", p.Params)
	}
	return nil
}

// Fits reports whether the plan still suits src: every table it reads has
// the columns it was planned against and between half and twice the rows.
// A table src cannot resolve does not fit: rebuilding reports why.
func (p *Plan) Fits(src Source) bool {
	for _, t := range p.Tables {
		def, err := src.TableDef(t.Name)
		if err != nil || !def.Schema.Equal(t.Schema) {
			return false
		}
		segs, err := src.Segments(t.Name)
		if err != nil {
			return false
		}
		if rows := rowCount(segs); rows > 2*t.Rows || 2*rows < t.Rows {
			return false
		}
	}
	return true
}

// Bind returns the plan of one execution of the generic plan p with args:
// a copy of the nodes whose storage predicates compare with a `?`, those
// predicates' values filled in, sharing every other node (and every Memo)
// with p. A `?` anywhere else is bound in a copy of Sel and of the
// residuals (sqlparse.Rewrite). It reports false when args need what p
// cannot give: args that do not fit the template, whose errors are
// BindSelect's, or a value whose type does not compare with its column —
// as a literal, that conjunct would not have been pushed down — so the
// execution plans its bound statement instead.
func (p *Plan) Bind(args []any) (*Plan, bool) {
	if p.Custom || len(args) != p.Params {
		return nil, false
	}
	if p.Params == 0 {
		return p, true
	}
	b := binding{vals: make([]any, len(args)), args: args, loose: p.loose}
	for i, a := range args {
		v, ok := sqlparse.ArgValue(a)
		if !ok {
			return nil, false
		}
		b.vals[i] = v
	}
	root, ok := b.node(p.Root)
	if !ok {
		return nil, false
	}
	bound := &Plan{Root: root, Sel: p.Sel, Tables: p.Tables}
	if p.loose {
		sel, err := sqlparse.BindSelect(p.Sel, args)
		if err != nil {
			return nil, false
		}
		bound.Sel = sel
	}
	return bound, true
}

type binding struct {
	vals  []any // the arguments as storage values
	args  []any
	loose bool
}

// node returns n with its subtree bound, n itself when nothing in it
// changed.
func (b *binding) node(n *Node) (*Node, bool) {
	var kids []*Node // a copy, once a child changed
	for i, c := range n.Children {
		bc, ok := b.node(c)
		if !ok {
			return nil, false
		}
		if bc != c && kids == nil {
			kids = slices.Clone(n.Children)
		}
		if kids != nil {
			kids[i] = bc
		}
	}
	acc, ok := b.access(n.Access)
	if !ok {
		return nil, false
	}
	res, ok := b.expr(n.Residual)
	if !ok {
		return nil, false
	}
	if kids == nil && acc == n.Access && res == n.Residual {
		return n, true
	}
	c := *n
	if kids != nil {
		c.Children = kids
	}
	c.Access, c.Residual = acc, res
	return &c, true
}

// access returns a copy of acc with its slots filled in and its residual
// bound, acc itself when it has neither.
func (b *binding) access(acc *Access) (*Access, bool) {
	if acc == nil || acc.Slots == nil && (!b.loose || acc.Residual == nil) {
		return acc, true
	}
	a := *acc
	if acc.Slots != nil {
		a.Preds = slices.Clone(acc.Preds)
		for i, s := range acc.Slots {
			if s < 0 {
				continue
			}
			if s >= len(b.vals) {
				return nil, false
			}
			v := b.vals[s]
			if colstore.CheckComparable(acc.types[i], colstore.ValueType(v)) != nil {
				return nil, false
			}
			a.Preds[i].Val = v
		}
	}
	var ok bool
	a.Residual, ok = b.expr(acc.Residual)
	return &a, ok
}

// expr binds the `?`s of a residual.
func (b *binding) expr(e sqlparse.Expr) (sqlparse.Expr, bool) {
	if !b.loose || e == nil {
		return e, true
	}
	out, err := sqlparse.BindExpr(e, b.args)
	return out, err == nil
}
