// Package difftest is the differential test harness for the SQL engine: a
// deliberately naive row-at-a-time reference executor, a seeded random query
// generator, and an in-memory Database fake. The engine (serial and at every
// parallel degree) must agree with the reference exactly — including float
// bits, which works because the generator only produces values whose
// arithmetic is exact in float64 regardless of accumulation order.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
)

// FakeDB is an in-memory sqlexec.Database over one table. Rows are stored
// both as segments (for the engine) and as boxed rows in source order (for
// the reference executor). Segments are filled with contiguous row ranges in
// order, so the engine's scan order equals the source row order and results
// can be compared positionally.
type FakeDB struct {
	Def     *catalog.TableDef
	Segs    []*colstore.Segment
	SrcRows [][]any
	reg     *udf.Registry
	// Svcs, when set, is exposed to the planner via Services — tests use it
	// to hand a ShardInfoProvider stub to the dot-product-join path.
	Svcs map[string]any
	// Instances is the PARTITION BEST parallelism per node (0 means 2).
	Instances int
}

// NewFakeDB splits rows into nsegs contiguous segments with small blocks
// (so multi-block parallel scans actually happen).
func NewFakeDB(name string, schema colstore.Schema, rows [][]any, nsegs, blockRows int) (*FakeDB, error) {
	if nsegs < 1 {
		nsegs = 1
	}
	db := &FakeDB{
		Def:     &catalog.TableDef{Name: name, Schema: schema},
		SrcRows: rows,
		reg:     udf.NewRegistry(),
	}
	per := (len(rows) + nsegs - 1) / nsegs
	for i := 0; i < nsegs; i++ {
		seg := colstore.NewSegment(schema, blockRows)
		lo := i * per
		hi := lo + per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		if lo < hi {
			batch := colstore.NewBatch(schema)
			for _, r := range rows[lo:hi] {
				if err := batch.AppendRow(r...); err != nil {
					return nil, err
				}
			}
			if err := seg.Append(batch); err != nil {
				return nil, err
			}
		}
		db.Segs = append(db.Segs, seg)
	}
	return db, nil
}

// TableDef implements sqlexec.Database.
func (db *FakeDB) TableDef(name string) (*catalog.TableDef, error) {
	if name != db.Def.Name {
		return nil, fmt.Errorf("difftest: unknown table %q", name)
	}
	return db.Def, nil
}

// Segments implements sqlexec.Database.
func (db *FakeDB) Segments(name string) ([]*colstore.Segment, error) {
	if name != db.Def.Name {
		return nil, fmt.Errorf("difftest: unknown table %q", name)
	}
	return db.Segs, nil
}

// UDFs implements sqlexec.Database.
func (db *FakeDB) UDFs() *udf.Registry { return db.reg }

// UDFInstancesPerNode implements sqlexec.Database.
func (db *FakeDB) UDFInstancesPerNode() int {
	if db.Instances > 0 {
		return db.Instances
	}
	return 2
}

// Services implements sqlexec.Database.
func (db *FakeDB) Services() map[string]any { return db.Svcs }

// RefResult is the reference executor's output.
type RefResult struct {
	Schema colstore.Schema
	Rows   [][]any
}

// RunReference executes sel against the fake's rows one row at a time, with
// none of the engine's batching, pushdown, chunking, or parallelism. It
// mirrors the engine's semantics: integer arithmetic stays integral except
// division, AND/OR evaluate both sides, groups appear in first-row order,
// aggregates over empty MIN/MAX input error, and ORDER BY is a stable sort.
func (db *FakeDB) RunReference(sel *sqlparse.Select) (*RefResult, error) {
	if sel.From != db.Def.Name {
		return nil, fmt.Errorf("difftest: unknown table %q", sel.From)
	}
	schema := db.Def.Schema
	agg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if !item.Star && refHasAggregate(item.Expr) {
			agg = true
		}
	}
	rows, err := db.filterRows(sel.Where)
	if err != nil {
		return nil, err
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

func (db *FakeDB) filterRows(where sqlparse.Expr) ([][]any, error) {
	if where == nil {
		return db.SrcRows, nil
	}
	var kept [][]any
	for _, r := range db.SrcRows {
		v, err := evalRow(where, db.Def.Schema, r)
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
	return kept, nil
}

func refProject(schema colstore.Schema, rows [][]any, sel *sqlparse.Select) (*RefResult, error) {
	out := &RefResult{}
	type col struct {
		star bool
		expr sqlparse.Expr
	}
	var cols []col
	for i, item := range sel.Items {
		if item.Star {
			for _, c := range schema {
				out.Schema = append(out.Schema, c)
				cols = append(cols, col{expr: &sqlparse.ColRef{Name: c.Name}})
			}
			continue
		}
		t, err := inferType(item.Expr, schema)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = refExprName(item.Expr, i)
		}
		out.Schema = append(out.Schema, colstore.ColumnSchema{Name: name, Type: t})
		cols = append(cols, col{expr: item.Expr})
	}
	for _, r := range rows {
		orow := make([]any, len(cols))
		for ci, c := range cols {
			v, err := evalRow(c.expr, schema, r)
			if err != nil {
				return nil, err
			}
			orow[ci] = v
		}
		out.Rows = append(out.Rows, orow)
	}
	return out, nil
}

// refAgg is one aggregate function over one group, a boxed value at a time.
type refAgg struct {
	fn    string
	count int64
	sum   float64
	min   any
	max   any
}

func (a *refAgg) add(v any) error {
	a.count++
	switch a.fn {
	case "SUM", "AVG":
		switch x := v.(type) {
		case int64:
			a.sum += float64(x)
		case float64:
			a.sum += x
		default:
			return fmt.Errorf("difftest: %s over non-numeric value %T", a.fn, v)
		}
	case "MIN":
		if a.min == nil {
			a.min = v
		} else if c, err := colstore.CompareValues(v, a.min); err != nil {
			return err
		} else if c < 0 {
			a.min = v
		}
	case "MAX":
		if a.max == nil {
			a.max = v
		} else if c, err := colstore.CompareValues(v, a.max); err != nil {
			return err
		} else if c > 0 {
			a.max = v
		}
	}
	return nil
}

func (a *refAgg) result() (any, error) {
	switch a.fn {
	case "COUNT":
		return a.count, nil
	case "SUM":
		return a.sum, nil
	case "AVG":
		if a.count == 0 {
			return 0.0, nil
		}
		return a.sum / float64(a.count), nil
	case "MIN":
		if a.min == nil {
			return nil, fmt.Errorf("difftest: MIN over empty input")
		}
		return a.min, nil
	case "MAX":
		if a.max == nil {
			return nil, fmt.Errorf("difftest: MAX over empty input")
		}
		return a.max, nil
	}
	return nil, fmt.Errorf("difftest: unknown aggregate %s", a.fn)
}

func refAggregate(schema colstore.Schema, rows [][]any, sel *sqlparse.Select) (*RefResult, error) {
	inGroup := func(name string) bool {
		for _, g := range sel.GroupBy {
			if g == name {
				return true
			}
		}
		return false
	}
	type plan struct {
		groupCol string
		fn       *sqlparse.FuncCall
		outName  string
		outType  colstore.Type
	}
	var plans []plan
	for i, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("difftest: SELECT * not allowed with aggregation")
		}
		name := item.Alias
		if name == "" {
			name = refExprName(item.Expr, i)
		}
		switch x := item.Expr.(type) {
		case *sqlparse.ColRef:
			if !inGroup(x.Name) {
				return nil, fmt.Errorf("difftest: column %q must appear in GROUP BY", x.Name)
			}
			ci := schema.ColIndex(x.Name)
			if ci < 0 {
				return nil, fmt.Errorf("difftest: unknown column %q", x.Name)
			}
			plans = append(plans, plan{groupCol: x.Name, outName: name, outType: schema[ci].Type})
		case *sqlparse.FuncCall:
			if !refIsAggregate(x.Name) {
				return nil, fmt.Errorf("difftest: %s is not an aggregate", x.Name)
			}
			if !x.Star && len(x.Args) != 1 {
				return nil, fmt.Errorf("difftest: %s takes one argument", x.Name)
			}
			p := plan{fn: x, outName: name}
			switch x.Name {
			case "COUNT":
				p.outType = colstore.TypeInt64
			case "SUM", "AVG":
				p.outType = colstore.TypeFloat64
			default: // MIN/MAX keep the argument type
				if x.Star {
					return nil, fmt.Errorf("difftest: %s(*) not supported", x.Name)
				}
				t, err := inferType(x.Args[0], schema)
				if err != nil {
					return nil, err
				}
				p.outType = t
			}
			plans = append(plans, p)
		default:
			return nil, fmt.Errorf("difftest: unsupported aggregate projection %s", item.Expr.String())
		}
	}
	type group struct {
		keyVals map[string]any
		states  []*refAgg
	}
	groups := map[string]*group{}
	var order []string
	newGroup := func() *group {
		g := &group{keyVals: map[string]any{}}
		for _, p := range plans {
			if p.fn != nil {
				g.states = append(g.states, &refAgg{fn: p.fn.Name})
			} else {
				g.states = append(g.states, nil)
			}
		}
		return g
	}
	for _, r := range rows {
		var kb strings.Builder
		kv := map[string]any{}
		for _, gc := range sel.GroupBy {
			ci := schema.ColIndex(gc)
			if ci < 0 {
				return nil, fmt.Errorf("difftest: unknown column %q", gc)
			}
			kv[gc] = r[ci]
			// Length-prefixed, so no value can run into its neighbour's.
			part := fmt.Sprint(r[ci])
			fmt.Fprintf(&kb, "%d:%s", len(part), part)
		}
		key := kb.String()
		g, ok := groups[key]
		if !ok {
			g = newGroup()
			g.keyVals = kv
			groups[key] = g
			order = append(order, key)
		}
		for pi, p := range plans {
			if p.fn == nil {
				continue
			}
			var v any = int64(1) // COUNT(*)
			if !p.fn.Star {
				var err error
				v, err = evalRow(p.fn.Args[0], schema, r)
				if err != nil {
					return nil, err
				}
			}
			if err := g.states[pi].add(v); err != nil {
				return nil, err
			}
		}
	}
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		groups[""] = newGroup()
		order = append(order, "")
	}
	out := &RefResult{}
	for _, p := range plans {
		out.Schema = append(out.Schema, colstore.ColumnSchema{Name: p.outName, Type: p.outType})
	}
	for _, key := range order {
		g := groups[key]
		orow := make([]any, len(plans))
		for pi, p := range plans {
			if p.fn == nil {
				orow[pi] = g.keyVals[p.groupCol]
				continue
			}
			v, err := g.states[pi].result()
			if err != nil {
				return nil, err
			}
			orow[pi] = v
		}
		out.Rows = append(out.Rows, orow)
	}
	return out, nil
}

func refOrderBy(res *RefResult, keys []sqlparse.OrderItem) error {
	if len(keys) == 0 {
		return nil
	}
	idx := make([]int, len(keys))
	for i, o := range keys {
		ci := res.Schema.ColIndex(o.Col)
		if ci < 0 {
			return fmt.Errorf("difftest: ORDER BY column %q not in output", o.Col)
		}
		idx[i] = ci
	}
	var sortErr error
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for k, ci := range idx {
			c, err := colstore.CompareValues(res.Rows[a][ci], res.Rows[b][ci])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if keys[k].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return sortErr
}

// evalRow evaluates an expression for one row, mirroring sqlexec's
// vectorized evaluator value for value.
func evalRow(e sqlparse.Expr, schema colstore.Schema, row []any) (any, error) {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		ci := schema.ColIndex(x.Name)
		if ci < 0 {
			return nil, fmt.Errorf("difftest: unknown column %q", x.Name)
		}
		return row[ci], nil
	case *sqlparse.NumberLit:
		if x.IsInt {
			return x.Int, nil
		}
		return x.Float, nil
	case *sqlparse.StringLit:
		return x.Val, nil
	case *sqlparse.BoolLit:
		return x.Val, nil
	case *sqlparse.Unary:
		v, err := evalRow(x.X, schema, row)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, fmt.Errorf("difftest: unary minus on %T", v)
		case "NOT":
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("difftest: NOT on %T", v)
			}
			return !b, nil
		}
		return nil, fmt.Errorf("difftest: unknown unary op %q", x.Op)
	case *sqlparse.Binary:
		l, err := evalRow(x.L, schema, row)
		if err != nil {
			return nil, err
		}
		r, err := evalRow(x.R, schema, row)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+", "-", "*", "/":
			return rowArith(x.Op, l, r)
		case "=", "<>", "<", "<=", ">", ">=":
			c, err := colstore.CompareValues(l, r)
			if err != nil {
				return nil, err
			}
			switch x.Op {
			case "=":
				return c == 0, nil
			case "<>":
				return c != 0, nil
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			default:
				return c >= 0, nil
			}
		case "AND", "OR":
			lb, lok := l.(bool)
			rb, rok := r.(bool)
			if !lok || !rok {
				return nil, fmt.Errorf("difftest: %s requires booleans", x.Op)
			}
			if x.Op == "AND" {
				return lb && rb, nil
			}
			return lb || rb, nil
		}
		return nil, fmt.Errorf("difftest: unknown binary op %q", x.Op)
	}
	return nil, fmt.Errorf("difftest: unsupported expression %T", e)
}

func rowArith(op string, l, r any) (any, error) {
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt && op != "/" {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		default:
			return li * ri, nil
		}
	}
	lf, err := rowFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := rowFloat(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	default:
		return lf / rf, nil
	}
}

func rowFloat(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("difftest: expected numeric value, got %T", v)
}

// inferType statically types an expression the same way the vectorized
// evaluator would, so zero-row outputs still carry the right schema.
func inferType(e sqlparse.Expr, schema colstore.Schema) (colstore.Type, error) {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		ci := schema.ColIndex(x.Name)
		if ci < 0 {
			return 0, fmt.Errorf("difftest: unknown column %q", x.Name)
		}
		return schema[ci].Type, nil
	case *sqlparse.NumberLit:
		if x.IsInt {
			return colstore.TypeInt64, nil
		}
		return colstore.TypeFloat64, nil
	case *sqlparse.StringLit:
		return colstore.TypeString, nil
	case *sqlparse.BoolLit:
		return colstore.TypeBool, nil
	case *sqlparse.Unary:
		if x.Op == "NOT" {
			return colstore.TypeBool, nil
		}
		return inferType(x.X, schema)
	case *sqlparse.Binary:
		switch x.Op {
		case "+", "-", "*", "/":
			lt, err := inferType(x.L, schema)
			if err != nil {
				return 0, err
			}
			rt, err := inferType(x.R, schema)
			if err != nil {
				return 0, err
			}
			if lt == colstore.TypeInt64 && rt == colstore.TypeInt64 && x.Op != "/" {
				return colstore.TypeInt64, nil
			}
			return colstore.TypeFloat64, nil
		default:
			return colstore.TypeBool, nil
		}
	}
	return 0, fmt.Errorf("difftest: cannot type %T", e)
}

func refExprName(e sqlparse.Expr, pos int) string {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		return x.Name
	case *sqlparse.FuncCall:
		return strings.ToLower(x.Name)
	default:
		return fmt.Sprintf("col%d", pos)
	}
}

func refIsAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

func refHasAggregate(e sqlparse.Expr) bool {
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		if refIsAggregate(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if refHasAggregate(a) {
				return true
			}
		}
	case *sqlparse.Binary:
		return refHasAggregate(x.L) || refHasAggregate(x.R)
	case *sqlparse.Unary:
		return refHasAggregate(x.X)
	}
	return false
}
