package plan

import (
	"fmt"
	"strings"

	"verticadr/internal/catalog"
	"verticadr/internal/sqlparse"
)

// The planner owns a deep copy of every statement it plans: column
// references are resolved and rewritten in place (qualifiers stripped for
// single-table statements, rewritten to "alias.column" names under a join),
// and the executor walks the rewritten copy. The caller's AST is never
// touched — plans may be cached and shared.

func cloneSelect(sel *sqlparse.Select) *sqlparse.Select {
	out := *sel
	out.Items = make([]sqlparse.SelectItem, len(sel.Items))
	for i, it := range sel.Items {
		out.Items[i] = sqlparse.SelectItem{Star: it.Star, Expr: copyExpr(it.Expr), Alias: it.Alias}
	}
	if len(sel.Joins) > 0 {
		out.Joins = make([]sqlparse.Join, len(sel.Joins))
		for i, j := range sel.Joins {
			out.Joins[i] = sqlparse.Join{Table: j.Table, Alias: j.Alias, On: copyExpr(j.On)}
		}
	}
	out.Where = copyExpr(sel.Where)
	out.GroupBy = append([]string(nil), sel.GroupBy...)
	out.OrderBy = append([]sqlparse.OrderItem(nil), sel.OrderBy...)
	return &out
}

func copyExpr(e sqlparse.Expr) sqlparse.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sqlparse.ColRef:
		c := *x
		return &c
	case *sqlparse.NumberLit:
		c := *x
		return &c
	case *sqlparse.StringLit:
		c := *x
		return &c
	case *sqlparse.BoolLit:
		c := *x
		return &c
	case *sqlparse.Placeholder:
		c := *x
		return &c
	case *sqlparse.Unary:
		return &sqlparse.Unary{Op: x.Op, X: copyExpr(x.X)}
	case *sqlparse.Binary:
		return &sqlparse.Binary{Op: x.Op, L: copyExpr(x.L), R: copyExpr(x.R)}
	case *sqlparse.FuncCall:
		c := &sqlparse.FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			c.Args = append(c.Args, copyExpr(a))
		}
		if x.Params != nil {
			c.Params = make(map[string]sqlparse.Expr, len(x.Params))
			for k, v := range x.Params {
				c.Params[k] = copyExpr(v)
			}
		}
		if x.Over != nil {
			o := *x.Over
			o.PartitionBy = append([]string(nil), x.Over.PartitionBy...)
			c.Over = &o
		}
		return c
	default:
		// Unknown node kinds flow through unchanged; the executor rejects
		// anything it cannot evaluate.
		return e
	}
}

// walkColRefs visits every column reference in the expression, allowing the
// visitor to rewrite it in place.
func walkColRefs(e sqlparse.Expr, f func(*sqlparse.ColRef) error) error {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		return f(x)
	case *sqlparse.Unary:
		return walkColRefs(x.X, f)
	case *sqlparse.Binary:
		if err := walkColRefs(x.L, f); err != nil {
			return err
		}
		return walkColRefs(x.R, f)
	case *sqlparse.FuncCall:
		for _, a := range x.Args {
			if err := walkColRefs(a, f); err != nil {
				return err
			}
		}
		for _, v := range x.Params {
			if err := walkColRefs(v, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Normalize returns a single-table statement as Build hands it to the
// executor: a deep copy with its table qualifiers stripped. That needs no
// catalog, so a cluster router normalizes once, ships the result to its
// peers and merges their answers against the statement they ran.
func Normalize(sel *sqlparse.Select) (*sqlparse.Select, error) {
	sel = cloneSelect(sel)
	if err := normalizeSingle(sel); err != nil {
		return nil, err
	}
	return sel, nil
}

// normalizeSingle strips table qualifiers from a single-table statement,
// rejecting qualifiers that name anything but the FROM table (or its alias).
func normalizeSingle(sel *sqlparse.Select) error {
	quals := map[string]bool{sel.From: true}
	if sel.FromAlias != "" {
		quals[sel.FromAlias] = true
	}
	strip := func(c *sqlparse.ColRef) error {
		if c.Table == "" {
			return nil
		}
		if !quals[c.Table] {
			return fmt.Errorf("plan: unknown table %q in reference %s", c.Table, c.String())
		}
		c.Table = ""
		return nil
	}
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		if err := walkColRefs(it.Expr, strip); err != nil {
			return err
		}
	}
	if sel.Where != nil {
		if err := walkColRefs(sel.Where, strip); err != nil {
			return err
		}
	}
	stripName := func(s string) string {
		if i := strings.IndexByte(s, '.'); i > 0 && quals[s[:i]] {
			return s[i+1:]
		}
		return s
	}
	for i, g := range sel.GroupBy {
		sel.GroupBy[i] = stripName(g)
	}
	for i, o := range sel.OrderBy {
		sel.OrderBy[i].Col = stripName(o.Col)
	}
	return nil
}

// JoinInput is one table of a join statement as the statement uses it:
// inputs[0] is the FROM table (the probe side), every later input a joined
// table (a build side). Everything here is a function of the statement and
// the table definitions alone — no statistics — so a cluster router resolves
// a join from its cached catalog exactly as a peer's planner will.
type JoinInput struct {
	Alias string
	Table string
	Def   *catalog.TableDef
	// Cols are the columns any part of the statement references, in
	// table-schema order.
	Cols []string
	// Where is the AND of the WHERE conjuncts that name only this table,
	// over bare column names (nil when there is none): the filter its scan
	// applies before the join.
	Where sqlparse.Expr
	// ProbeKey and BuildKey are a joined table's equi-join keys in canonical
	// "alias.column" form: ProbeKey names a table already in scope, BuildKey
	// this one. Both are empty on inputs[0].
	ProbeKey, BuildKey string
}

// resolveRef rewrites one column reference to its canonical "alias.column"
// name against the given scope.
func resolveRef(c *sqlparse.ColRef, scope []JoinInput) error {
	if c.Table != "" {
		for _, r := range scope {
			if r.Alias == c.Table {
				if r.Def.Schema.ColIndex(c.Name) < 0 {
					return fmt.Errorf("plan: unknown column %q in table %q", c.Name, r.Alias)
				}
				c.Name = r.Alias + "." + c.Name
				c.Table = ""
				return nil
			}
		}
		return fmt.Errorf("plan: unknown table %q in reference %s", c.Table, c.String())
	}
	if strings.IndexByte(c.Name, '.') > 0 {
		// Already canonical (re-planning a normalized statement).
		return nil
	}
	found := -1
	for i, r := range scope {
		if r.Def.Schema.ColIndex(c.Name) >= 0 {
			if found >= 0 {
				return fmt.Errorf("plan: ambiguous column %q (in %q and %q)", c.Name, scope[found].Alias, r.Alias)
			}
			found = i
		}
	}
	if found < 0 {
		return fmt.Errorf("plan: unknown column %q", c.Name)
	}
	c.Name = scope[found].Alias + "." + c.Name
	return nil
}

// resolveName canonicalizes a GROUP BY / ORDER BY name the same way.
// Unresolvable ORDER BY names may be output aliases, so the caller decides
// whether an error is fatal.
func resolveName(s string, scope []JoinInput) (string, error) {
	if i := strings.IndexByte(s, '.'); i > 0 {
		for _, r := range scope {
			if r.Alias == s[:i] {
				if r.Def.Schema.ColIndex(s[i+1:]) < 0 {
					return "", fmt.Errorf("plan: unknown column %q in table %q", s[i+1:], r.Alias)
				}
				return s, nil
			}
		}
		return "", fmt.Errorf("plan: unknown table %q in reference %q", s[:i], s)
	}
	c := &sqlparse.ColRef{Name: s}
	if err := resolveRef(c, scope); err != nil {
		return "", err
	}
	return c.Name, nil
}

// normalizeJoin rewrites every column reference in a join statement to its
// canonical "alias.column" form. ON clauses resolve against the tables in
// scope at that join (the base table plus all earlier joins, plus the joined
// table itself).
func normalizeJoin(sel *sqlparse.Select, refs []JoinInput) error {
	full := func(c *sqlparse.ColRef) error { return resolveRef(c, refs) }
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		if err := walkColRefs(it.Expr, full); err != nil {
			return err
		}
	}
	if sel.Where != nil {
		if err := walkColRefs(sel.Where, full); err != nil {
			return err
		}
	}
	for i := range sel.Joins {
		scope := refs[:i+2]
		if err := walkColRefs(sel.Joins[i].On, func(c *sqlparse.ColRef) error {
			return resolveRef(c, scope)
		}); err != nil {
			return err
		}
	}
	for i, g := range sel.GroupBy {
		n, err := resolveName(g, refs)
		if err != nil {
			return err
		}
		sel.GroupBy[i] = n
	}
	for i, o := range sel.OrderBy {
		n, err := resolveName(o.Col, refs)
		if err != nil {
			// ORDER BY may name an output alias; leave it for the executor.
			continue
		}
		sel.OrderBy[i].Col = n
	}
	return nil
}

// flattenAnd splits a WHERE clause into its top-level AND conjuncts.
func flattenAnd(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []sqlparse.Expr{e}
}

// rebuildAnd reassembles conjuncts left-associated; nil when empty.
func rebuildAnd(conjs []sqlparse.Expr) sqlparse.Expr {
	if len(conjs) == 0 {
		return nil
	}
	out := conjs[0]
	for _, c := range conjs[1:] {
		out = &sqlparse.Binary{Op: "AND", L: out, R: c}
	}
	return out
}

// aliasPrefix returns the "alias" of a canonical dotted column name, or ""
// for a bare name.
func aliasPrefix(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return ""
}

// stripAliasExpr deep-copies the expression rewriting this alias's columns
// to bare names, producing a filter evaluable against the table's own scan
// batches (before join renaming).
func stripAliasExpr(e sqlparse.Expr, alias string) sqlparse.Expr {
	out := copyExpr(e)
	_ = walkColRefs(out, func(c *sqlparse.ColRef) error {
		if strings.HasPrefix(c.Name, alias+".") {
			c.Name = c.Name[len(alias)+1:]
		}
		return nil
	})
	return out
}
