package plan

import (
	"fmt"
	"math"

	"verticadr/internal/catalog"
	"verticadr/internal/sqlparse"
)

// NormalizeJoin returns a join statement as Build hands it to the executor —
// every column reference rewritten to its canonical "alias.column" form —
// together with its inputs: per table the columns the statement needs, the
// WHERE conjuncts that filter it alone, and its join keys. It reads table
// definitions only, so a cluster router resolves a join from its catalog
// cache, ships the normalized statement to its peers and merges their
// answers against the statement they ran.
func NormalizeJoin(sel *sqlparse.Select, tableDef func(name string) (*catalog.TableDef, error)) (*sqlparse.Select, []JoinInput, error) {
	sel, inputs, _, err := resolveJoin(sel, tableDef)
	return sel, inputs, err
}

// resolveJoin normalizes sel against the catalog and splits it by table:
// every input's needed columns, pushed-down conjuncts and join keys, plus
// the conjuncts spanning tables, which stay as a residual filter on the
// topmost join.
func resolveJoin(sel *sqlparse.Select, tableDef func(name string) (*catalog.TableDef, error)) (norm *sqlparse.Select, inputs []JoinInput, residual []sqlparse.Expr, err error) {
	if udtfCall(sel) != nil {
		return nil, nil, nil, fmt.Errorf("plan: UDTF over a join is not supported")
	}
	inputs = make([]JoinInput, 0, len(sel.Joins)+1)
	addInput := func(table, alias string) error {
		if alias == "" {
			alias = table
		}
		for _, r := range inputs {
			if r.Alias == alias {
				return fmt.Errorf("plan: duplicate table alias %q", alias)
			}
		}
		def, err := tableDef(table)
		if err != nil {
			return err
		}
		inputs = append(inputs, JoinInput{Alias: alias, Table: table, Def: def})
		return nil
	}
	if err := addInput(sel.From, sel.FromAlias); err != nil {
		return nil, nil, nil, err
	}
	for _, j := range sel.Joins {
		if err := addInput(j.Table, j.Alias); err != nil {
			return nil, nil, nil, err
		}
	}
	if norm, err = normalizeJoin(sel, inputs); err != nil {
		return nil, nil, nil, err
	}

	// Classify WHERE conjuncts: single-table ones push into that table's
	// scan (rewritten to bare column names), the rest filter the join output.
	perTable := map[string][]sqlparse.Expr{}
	for _, c := range flattenAnd(norm.Where) {
		als := exprAliases(c)
		if len(als) == 1 {
			var a string
			for k := range als {
				a = k
			}
			perTable[a] = append(perTable[a], stripAliasExpr(c, a))
		} else {
			residual = append(residual, c)
		}
	}
	needed := neededCols(norm, inputs)
	for i := range inputs {
		in := &inputs[i]
		in.Cols = needed[in.Alias]
		in.Where = rebuildAnd(perTable[in.Alias])
		if i > 0 {
			in.ProbeKey, in.BuildKey, err = joinKeys(norm.Joins[i-1].On, inputs[:i], *in)
			if err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return norm, inputs, residual, nil
}

// buildJoin plans a multi-table statement as a left-deep chain of hash
// joins: the base table is the probe side, each joined table builds a hash
// table on its equi-join key. Single-table WHERE conjuncts push down into
// the owning table's scan (index or sequential, chosen by cost); conjuncts
// spanning tables stay as a residual filter on the topmost join.
func (b *builder) buildJoin(sel *sqlparse.Select) (*Plan, error) {
	sel, inputs, topResidual, err := resolveJoin(sel, b.src.TableDef)
	if err != nil {
		return nil, err
	}
	stats := map[string]*tableStats{}
	scans := make([]*Node, len(inputs))
	for i, in := range inputs {
		ts, err := b.gatherStats(in.Table, in.Def)
		if err != nil {
			return nil, err
		}
		stats[in.Alias] = ts
		scans[i] = b.scanNode(in.Table, in.Alias, in.Def, ts, in.Where, false)
		scans[i].Cols = in.Cols
	}
	// ndv resolves a canonical "alias.column" name to its column NDV.
	ndv := func(name string) int {
		a := aliasPrefix(name)
		if ts := stats[a]; ts != nil {
			return ts.colStats(name[len(a)+1:]).NDV
		}
		return 0
	}
	cur := scans[0]
	for i, in := range inputs[1:] {
		n := b.node(OpHashJoin)
		n.Children = []*Node{cur, scans[i+1]}
		n.LeftKey, n.RightKey = in.ProbeKey, in.BuildKey
		n.EstRows = estimateJoin(cur.EstRows, scans[i+1].EstRows, ndv(in.ProbeKey), ndv(in.BuildKey))
		n.Detail = in.ProbeKey + " = " + in.BuildKey
		cur = n
	}
	if len(topResidual) > 0 {
		cur.Residual = rebuildAnd(topResidual)
		cur.EstRows = estimateRows(int(cur.EstRows), math.Pow(defaultSel, float64(len(topResidual))))
		cur.Detail += ", filter " + cur.Residual.String()
	}
	root, err := b.shapeAbove(cur, sel, ndv, false)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: root, Sel: sel}, nil
}

// joinKeys validates an ON clause as `alias.col = alias.col` with one side
// in the left scope and the other naming the newly joined table, returning
// (probe key, build key) in canonical form.
func joinKeys(on sqlparse.Expr, left []JoinInput, right JoinInput) (string, string, error) {
	bin, ok := on.(*sqlparse.Binary)
	if !ok || bin.Op != "=" {
		return "", "", fmt.Errorf("plan: unsupported join condition %s (need col = col)", on.String())
	}
	lc, ok1 := bin.L.(*sqlparse.ColRef)
	rc, ok2 := bin.R.(*sqlparse.ColRef)
	if !ok1 || !ok2 {
		return "", "", fmt.Errorf("plan: unsupported join condition %s (need col = col)", on.String())
	}
	inLeft := func(name string) bool {
		a := aliasPrefix(name)
		for _, r := range left {
			if r.Alias == a {
				return true
			}
		}
		return false
	}
	la, ra := aliasPrefix(lc.Name), aliasPrefix(rc.Name)
	switch {
	case inLeft(lc.Name) && ra == right.Alias:
		return lc.Name, rc.Name, nil
	case inLeft(rc.Name) && la == right.Alias:
		return rc.Name, lc.Name, nil
	}
	return "", "", fmt.Errorf("plan: join condition %s must reference both sides", on.String())
}

// exprAliases collects the table aliases an expression references.
func exprAliases(e sqlparse.Expr) map[string]bool {
	out := map[string]bool{}
	// A walk that returns every node as it is: no copy, no error.
	_, _ = sqlparse.Rewrite(e, func(x sqlparse.Expr) (sqlparse.Expr, error) {
		if c, ok := x.(*sqlparse.ColRef); ok {
			if a := aliasPrefix(c.Name); a != "" {
				out[a] = true
			}
		}
		return x, nil
	})
	return out
}

// neededCols computes, per table, the columns any part of the statement
// references, in table-schema order (deterministic regardless of expression
// order). SELECT * needs every column of every table.
func neededCols(sel *sqlparse.Select, refs []JoinInput) map[string][]string {
	want := map[string]map[string]bool{}
	for _, r := range refs {
		want[r.Alias] = map[string]bool{}
	}
	star := false
	addName := func(s string) (string, error) {
		a := aliasPrefix(s)
		if m, ok := want[a]; ok {
			m[s[len(a)+1:]] = true
		}
		return s, nil
	}
	for _, it := range sel.Items {
		star = star || it.Star
	}
	// A walk that returns every node and name as it is: no copy, no error.
	_, _ = sqlparse.RewriteSelect(sel, func(e sqlparse.Expr) (sqlparse.Expr, error) {
		if c, ok := e.(*sqlparse.ColRef); ok {
			addName(c.Name)
		}
		return e, nil
	}, addName)
	out := map[string][]string{}
	for _, r := range refs {
		var cols []string
		for _, cs := range r.Def.Schema {
			if star || want[r.Alias][cs.Name] {
				cols = append(cols, cs.Name)
			}
		}
		out[r.Alias] = cols
	}
	return out
}
