package difftest

import (
	"fmt"
	"strings"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
)

// MultiDB is an in-memory sqlexec.Database over several FakeDB tables, for
// differential testing of the planner's join path.
type MultiDB struct {
	Tables []*FakeDB
	reg    *udf.Registry
	Svcs   map[string]any
}

// NewMultiDB assembles a multi-table fake from per-table fakes.
func NewMultiDB(tables ...*FakeDB) *MultiDB {
	return &MultiDB{Tables: tables, reg: udf.NewRegistry()}
}

func (m *MultiDB) table(name string) (*FakeDB, error) {
	for _, t := range m.Tables {
		if t.Def.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("difftest: unknown table %q", name)
}

// TableDef implements sqlexec.Database.
func (m *MultiDB) TableDef(name string) (*catalog.TableDef, error) {
	t, err := m.table(name)
	if err != nil {
		return nil, err
	}
	return t.Def, nil
}

// Segments implements sqlexec.Database.
func (m *MultiDB) Segments(name string) ([]*colstore.Segment, error) {
	t, err := m.table(name)
	if err != nil {
		return nil, err
	}
	return t.Segs, nil
}

// UDFs implements sqlexec.Database.
func (m *MultiDB) UDFs() *udf.Registry { return m.reg }

// UDFInstancesPerNode implements sqlexec.Database.
func (m *MultiDB) UDFInstancesPerNode() int { return 2 }

// Services implements sqlexec.Database.
func (m *MultiDB) Services() map[string]any { return m.Svcs }

// BuildIndexes attaches B-tree indexes over the given columns to every
// segment, so generated point and range predicates exercise the planner's
// index-scan path.
func (db *FakeDB) BuildIndexes(cols ...string) error {
	for _, seg := range db.Segs {
		for _, c := range cols {
			if err := seg.BuildIndex(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunReference executes sel the naive way: single-table statements dispatch
// to the owning FakeDB's reference executor; join statements run as nested
// loops over the source rows — for each left row in order, for each right
// row in order, emit the concatenation when the ON keys compare equal under
// the engine's CompareValues ordering (int/float widening, ±0.0 equal, NaN
// equal to everything). That order is exactly what the engine's hash join
// produces (probe-row-major, build-row-ascending), so results compare
// positionally.
//
// The WHERE clause evaluates over the joined rows; the engine pushes
// single-table conjuncts below the join instead, which commutes because
// filters are row-local and order-preserving.
//
// Note: join statements canonicalize column references in sel in place —
// callers should pass an AST they own (the harness parses a private copy).
func (m *MultiDB) RunReference(sel *sqlparse.Select) (*RefResult, error) {
	if len(sel.Joins) == 0 {
		db, err := m.table(sel.From)
		if err != nil {
			return nil, err
		}
		return db.RunReference(sel)
	}
	type src struct {
		alias string
		db    *FakeDB
	}
	var scope []src
	addRef := func(table, alias string) error {
		db, err := m.table(table)
		if err != nil {
			return err
		}
		if alias == "" {
			alias = table
		}
		for _, s := range scope {
			if s.alias == alias {
				return fmt.Errorf("difftest: duplicate table alias %q", alias)
			}
		}
		scope = append(scope, src{alias: alias, db: db})
		return nil
	}
	if err := addRef(sel.From, sel.FromAlias); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := addRef(j.Table, j.Alias); err != nil {
			return nil, err
		}
	}
	schema := qualifyRefSchema(scope[0].db.Def.Schema, scope[0].alias)
	rows := scope[0].db.SrcRows
	for ji := range sel.Joins {
		right := scope[ji+1]
		rschema := qualifyRefSchema(right.db.Def.Schema, right.alias)
		li, ri, err := refJoinKeys(sel.Joins[ji].On, schema, rschema)
		if err != nil {
			return nil, err
		}
		var joined [][]any
		for _, lr := range rows {
			for _, rr := range right.db.SrcRows {
				c, err := colstore.CompareValues(lr[li], rr[ri])
				if err != nil {
					return nil, err
				}
				if c == 0 {
					row := make([]any, 0, len(lr)+len(rr))
					row = append(append(row, lr...), rr...)
					joined = append(joined, row)
				}
			}
		}
		schema = append(append(colstore.Schema{}, schema...), rschema...)
		rows = joined
	}
	if err := refCanonicalize(sel, schema); err != nil {
		return nil, err
	}
	if sel.Where != nil {
		var kept [][]any
		for _, r := range rows {
			v, err := evalRow(sel.Where, schema, r)
			if err != nil {
				return nil, err
			}
			keep, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("difftest: WHERE clause is not boolean")
			}
			if keep {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	agg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if !item.Star && refHasAggregate(item.Expr) {
			agg = true
		}
	}
	var out *RefResult
	var err error
	if agg {
		out, err = refAggregate(schema, rows, sel)
	} else {
		out, err = refProject(schema, rows, sel)
	}
	if err != nil {
		return nil, err
	}
	if err := refOrderBy(out, sel.OrderBy); err != nil {
		return nil, err
	}
	if sel.Limit >= 0 && len(out.Rows) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}
	return out, nil
}

// qualifyRefSchema renames a table's columns to their canonical
// "alias.column" join form, matching the engine's qualify.
func qualifyRefSchema(s colstore.Schema, alias string) colstore.Schema {
	out := make(colstore.Schema, len(s))
	for i, c := range s {
		out[i] = colstore.ColumnSchema{Name: alias + "." + c.Name, Type: c.Type}
	}
	return out
}

// refJoinKeys resolves an ON clause (`a.col = b.col`, one side per scope) to
// column indexes into the cumulative left schema and the joined table's
// schema, mirroring the planner's joinKeys rules: equality of two column
// references, one resolving on each side.
func refJoinKeys(on sqlparse.Expr, left, right colstore.Schema) (int, int, error) {
	bin, ok := on.(*sqlparse.Binary)
	if !ok || bin.Op != "=" {
		return 0, 0, fmt.Errorf("difftest: unsupported join condition %s", on.String())
	}
	lc, ok1 := bin.L.(*sqlparse.ColRef)
	rc, ok2 := bin.R.(*sqlparse.ColRef)
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("difftest: unsupported join condition %s", on.String())
	}
	combined := append(append(colstore.Schema{}, left...), right...)
	if err := refResolveCol(lc, combined); err != nil {
		return 0, 0, err
	}
	if err := refResolveCol(rc, combined); err != nil {
		return 0, 0, err
	}
	if li, ri := left.ColIndex(lc.Name), right.ColIndex(rc.Name); li >= 0 && ri >= 0 {
		return li, ri, nil
	}
	if li, ri := left.ColIndex(rc.Name), right.ColIndex(lc.Name); li >= 0 && ri >= 0 {
		return li, ri, nil
	}
	return 0, 0, fmt.Errorf("difftest: join condition %s must reference both sides", on.String())
}

// refCanonicalize rewrites every column reference in the statement to the
// joined schema's canonical "alias.column" names, mirroring the planner's
// normalizeJoin — including its unknown-name and ambiguity errors.
// Unresolvable ORDER BY names may be output aliases and are left alone.
func refCanonicalize(sel *sqlparse.Select, schema colstore.Schema) error {
	res := func(c *sqlparse.ColRef) error { return refResolveCol(c, schema) }
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		if err := refWalk(it.Expr, res); err != nil {
			return err
		}
	}
	if sel.Where != nil {
		if err := refWalk(sel.Where, res); err != nil {
			return err
		}
	}
	for i, g := range sel.GroupBy {
		n, err := refResolveName(g, schema)
		if err != nil {
			return err
		}
		sel.GroupBy[i] = n
	}
	for i, o := range sel.OrderBy {
		n, err := refResolveName(o.Col, schema)
		if err != nil {
			continue
		}
		sel.OrderBy[i].Col = n
	}
	return nil
}

// refResolveCol canonicalizes one column reference against the joined
// schema: explicit qualifiers must name a known alias.column; bare names
// must match exactly one table.
func refResolveCol(c *sqlparse.ColRef, schema colstore.Schema) error {
	if c.Table != "" {
		c.Name = c.Table + "." + c.Name
		c.Table = ""
	}
	if schema.ColIndex(c.Name) >= 0 {
		return nil
	}
	if strings.IndexByte(c.Name, '.') > 0 {
		return fmt.Errorf("difftest: unknown column %q", c.Name)
	}
	found := ""
	for _, cs := range schema {
		if strings.HasSuffix(cs.Name, "."+c.Name) {
			if found != "" {
				return fmt.Errorf("difftest: ambiguous column %q", c.Name)
			}
			found = cs.Name
		}
	}
	if found == "" {
		return fmt.Errorf("difftest: unknown column %q", c.Name)
	}
	c.Name = found
	return nil
}

func refResolveName(s string, schema colstore.Schema) (string, error) {
	c := &sqlparse.ColRef{Name: s}
	if err := refResolveCol(c, schema); err != nil {
		return "", err
	}
	return c.Name, nil
}

// refWalk visits every column reference in the expression.
func refWalk(e sqlparse.Expr, f func(*sqlparse.ColRef) error) error {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		return f(x)
	case *sqlparse.Unary:
		return refWalk(x.X, f)
	case *sqlparse.Binary:
		if err := refWalk(x.L, f); err != nil {
			return err
		}
		return refWalk(x.R, f)
	case *sqlparse.FuncCall:
		for _, a := range x.Args {
			if err := refWalk(a, f); err != nil {
				return err
			}
		}
	}
	return nil
}
