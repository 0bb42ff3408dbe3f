package plan

import (
	"fmt"
	"strings"

	"verticadr/internal/catalog"
	"verticadr/internal/sqlparse"
)

// The planner never writes to a statement. It hands the executor a
// normalized one — qualifiers stripped for single-table statements, column
// references rewritten to "alias.column" names under a join — made by
// sqlparse.RewriteSelect, which copies only the paths down to the references
// it changed and shares every other node with the caller's statement. Plans
// may be cached and shared, and a statement without qualifiers is not copied
// at all.

// Normalize returns a single-table statement as Build hands it to the
// executor: its table qualifiers stripped, rejecting any that name anything
// but the FROM table (or its alias). That needs no catalog, so a cluster
// router normalizes once, ships the result to its peers and merges their
// answers against the statement they ran.
func Normalize(sel *sqlparse.Select) (*sqlparse.Select, error) {
	qual := func(t string) bool { return t == sel.From || t == sel.FromAlias }
	return sqlparse.RewriteSelect(sel, func(e sqlparse.Expr) (sqlparse.Expr, error) {
		c, ok := e.(*sqlparse.ColRef)
		if !ok || c.Table == "" {
			return e, nil
		}
		if !qual(c.Table) {
			return nil, fmt.Errorf("plan: unknown table %q in reference %s", c.Table, c.String())
		}
		return &sqlparse.ColRef{Name: c.Name}, nil
	}, func(s string) (string, error) {
		if i := strings.IndexByte(s, '.'); i > 0 && qual(s[:i]) {
			return s[i+1:], nil
		}
		return s, nil
	})
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

// resolveRef returns the canonical "alias.column" name of the column
// reference table.name (table "" when unqualified) against the given scope.
func resolveRef(table, name string, scope []JoinInput) (string, error) {
	if table != "" {
		for _, r := range scope {
			if r.Alias == table {
				if r.Def.Schema.ColIndex(name) < 0 {
					return "", fmt.Errorf("plan: unknown column %q in table %q", name, r.Alias)
				}
				return r.Alias + "." + name, nil
			}
		}
		c := sqlparse.ColRef{Table: table, Name: name}
		return "", fmt.Errorf("plan: unknown table %q in reference %s", table, c.String())
	}
	if strings.IndexByte(name, '.') > 0 {
		// Already canonical (re-planning a normalized statement).
		return name, nil
	}
	found := -1
	for i, r := range scope {
		if r.Def.Schema.ColIndex(name) >= 0 {
			if found >= 0 {
				return "", fmt.Errorf("plan: ambiguous column %q (in %q and %q)", name, scope[found].Alias, r.Alias)
			}
			found = i
		}
	}
	if found < 0 {
		return "", fmt.Errorf("plan: unknown column %q", name)
	}
	return scope[found].Alias + "." + name, nil
}

// resolveCols is the rewrite that puts every column reference of an
// expression in its canonical form against scope.
func resolveCols(scope []JoinInput) func(sqlparse.Expr) (sqlparse.Expr, error) {
	return func(e sqlparse.Expr) (sqlparse.Expr, error) {
		c, ok := e.(*sqlparse.ColRef)
		if !ok {
			return e, nil
		}
		n, err := resolveRef(c.Table, c.Name, scope)
		if err != nil || n == c.Name {
			return e, err
		}
		return &sqlparse.ColRef{Name: n}, nil
	}
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
	return resolveRef("", s, scope)
}

// normalizeJoin returns a join statement with every column reference in its
// canonical "alias.column" form. Each ON clause resolves against the tables
// in scope at its join (the base table, all earlier joins and the joined
// table itself), the rest of the statement against all of them; an ORDER BY
// name that resolves nowhere may be an output alias and is left for the
// executor.
func normalizeJoin(sel *sqlparse.Select, refs []JoinInput) (*sqlparse.Select, error) {
	scoped := *sel
	scoped.Joins = make([]sqlparse.Join, len(sel.Joins))
	for i, j := range sel.Joins {
		on, err := sqlparse.Rewrite(j.On, resolveCols(refs[:i+2]))
		if err != nil {
			return nil, err
		}
		scoped.Joins[i] = sqlparse.Join{Table: j.Table, Alias: j.Alias, On: on}
	}
	return sqlparse.RewriteSelect(&scoped, resolveCols(refs), func(s string) (string, error) {
		return resolveName(s, refs)
	})
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

// stripAliasExpr rewrites this alias's columns to bare names, producing a
// filter evaluable against the table's own scan batches (before join
// renaming).
func stripAliasExpr(e sqlparse.Expr, alias string) sqlparse.Expr {
	prefix := alias + "."
	out, _ := sqlparse.Rewrite(e, func(x sqlparse.Expr) (sqlparse.Expr, error) { // it cannot fail
		if c, ok := x.(*sqlparse.ColRef); ok && strings.HasPrefix(c.Name, prefix) {
			return &sqlparse.ColRef{Table: c.Table, Name: c.Name[len(prefix):]}, nil
		}
		return x, nil
	})
	return out
}
