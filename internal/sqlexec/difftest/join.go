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
	sel, err := refCanonicalize(sel, schema)
	if err != nil {
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
	ln, err := refResolveCol(lc.Table, lc.Name, combined)
	if err != nil {
		return 0, 0, err
	}
	rn, err := refResolveCol(rc.Table, rc.Name, combined)
	if err != nil {
		return 0, 0, err
	}
	if li, ri := left.ColIndex(ln), right.ColIndex(rn); li >= 0 && ri >= 0 {
		return li, ri, nil
	}
	if li, ri := left.ColIndex(rn), right.ColIndex(ln); li >= 0 && ri >= 0 {
		return li, ri, nil
	}
	return 0, 0, fmt.Errorf("difftest: join condition %s must reference both sides", on.String())
}

// refCanonicalize returns the statement with every column reference in the
// joined schema's canonical "alias.column" names, mirroring the planner's
// normalizeJoin — including its unknown-name and ambiguity errors.
// Unresolvable ORDER BY names may be output aliases and are left alone.
func refCanonicalize(sel *sqlparse.Select, schema colstore.Schema) (*sqlparse.Select, error) {
	return sqlparse.RewriteSelect(sel, func(e sqlparse.Expr) (sqlparse.Expr, error) {
		c, ok := e.(*sqlparse.ColRef)
		if !ok {
			return e, nil
		}
		n, err := refResolveCol(c.Table, c.Name, schema)
		if err != nil || n == c.Name && c.Table == "" {
			return e, err
		}
		return &sqlparse.ColRef{Name: n}, nil
	}, func(s string) (string, error) { return refResolveCol("", s, schema) })
}

// refResolveCol canonicalizes one column reference against the joined
// schema: explicit qualifiers must name a known alias.column; bare names
// must match exactly one table.
func refResolveCol(table, name string, schema colstore.Schema) (string, error) {
	if table != "" {
		name = table + "." + name
	}
	if schema.ColIndex(name) >= 0 {
		return name, nil
	}
	if strings.IndexByte(name, '.') > 0 {
		return "", fmt.Errorf("difftest: unknown column %q", name)
	}
	found := ""
	for _, cs := range schema {
		if strings.HasSuffix(cs.Name, "."+name) {
			if found != "" {
				return "", fmt.Errorf("difftest: ambiguous column %q", name)
			}
			found = cs.Name
		}
	}
	if found == "" {
		return "", fmt.Errorf("difftest: unknown column %q", name)
	}
	return found, nil
}
