package sqlexec

import (
	"cmp"
	"context"
	"fmt"
	"sort"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
)

// Database is the executor's view of the MPP database. internal/vertica
// implements it; tests can provide fakes.
type Database interface {
	// TableDef resolves a table definition.
	TableDef(name string) (*catalog.TableDef, error)
	// Segments returns one segment per node for the table (possibly empty
	// segments on nodes holding no rows).
	Segments(name string) ([]*colstore.Segment, error)
	// UDFs returns the transform-function registry.
	UDFs() *udf.Registry
	// UDFInstancesPerNode is the planner's parallelism for PARTITION BEST
	// (the paper: "Vertica's PARTITION BEST takes into account resource
	// availability ... to determine the optimal number of UDF instances").
	UDFInstancesPerNode() int
	// Services exposes extension services to UDFs (DFS, model manager...).
	Services() map[string]any
}

// Result is a fully materialized query result.
type Result struct {
	Batch *colstore.Batch
	// Profile holds per-operator measurements for PROFILE SELECT statements;
	// nil otherwise.
	Profile *Profile
}

// Schema returns the result schema.
func (r *Result) Schema() colstore.Schema { return r.Batch.Schema }

// Len returns the number of result rows.
func (r *Result) Len() int { return r.Batch.Len() }

// Rows renders all rows as boxed values (convenience for tests and shells).
func (r *Result) Rows() [][]any {
	out := make([][]any, r.Batch.Len())
	for i := range out {
		out[i] = r.Batch.Row(i)
	}
	return out
}

// RunSelectCtx executes a SELECT statement. When sel.Profile is set (PROFILE
// SELECT ...) the result carries per-operator row counts and timings.
// Cancellation is honored at scan-block and aggregation-chunk boundaries (and
// between UDTF input batches), so a canceled query stops doing work within
// one block; the returned error then wraps verr.ErrCanceled.
func RunSelectCtx(ctx context.Context, db Database, sel *sqlparse.Select) (*Result, error) {
	var prof *Profile
	if sel.Profile {
		prof = NewProfile("")
	}
	res, err := runSelect(ctx, db, sel, prof)
	if err != nil {
		return nil, err
	}
	prof.finish()
	res.Profile = prof
	return res, nil
}

// runSelect plans the statement and walks the plan: there is no other
// executor. Planning errors (missing table, unbound placeholders, invalid
// joins) surface to the user as they are.
func runSelect(ctx context.Context, db Database, sel *sqlparse.Select, prof *Profile) (*Result, error) {
	telemetry.Default().Counter("sqlexec_queries_total", telemetry.L("kind", plan.KindOf(sel))).Inc()
	if err := verr.Canceled(ctx.Err()); err != nil {
		return nil, err
	}
	p, err := plan.Build(sel, db)
	if err != nil {
		return nil, err
	}
	return execPlan(ctx, db, p, prof)
}

func runConstSelect(ctx context.Context, sel *sqlparse.Select, prof *Profile) (*Result, error) {
	done := startOp(ctx, prof, "const")
	defer func() { done.Done(1, "table-less SELECT") }()
	dummy := &colstore.Batch{
		Schema: colstore.Schema{{Name: "$dummy", Type: colstore.TypeInt64}},
		Cols:   []*colstore.Vector{colstore.IntVector([]int64{0})},
	}
	out := &colstore.Batch{}
	for i, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlexec: SELECT * requires a FROM clause")
		}
		v, err := evalExpr(item.Expr, dummy)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr, i)
		}
		out.Schema = append(out.Schema, colstore.ColumnSchema{Name: name, Type: v.Type})
		out.Cols = append(out.Cols, v)
	}
	return &Result{Batch: out}, nil
}

// collectCols gathers all column names referenced by the statement.
func collectCols(sel *sqlparse.Select, schema colstore.Schema) ([]string, error) {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	walk := func(e sqlparse.Expr) {
		for _, n := range colRefs(e, nil) {
			add(n)
		}
	}
	for _, item := range sel.Items {
		if item.Star {
			for _, c := range schema {
				add(c.Name)
			}
			continue
		}
		walk(item.Expr)
	}
	if sel.Where != nil {
		walk(sel.Where)
	}
	for _, g := range sel.GroupBy {
		add(g)
	}
	for _, o := range sel.OrderBy {
		// ORDER BY may reference an output alias; resolved later if so.
		if schema.ColIndex(o.Col) >= 0 {
			add(o.Col)
		}
	}
	for _, n := range names {
		if schema.ColIndex(n) < 0 {
			return nil, fmt.Errorf("sqlexec: %w %q", verr.ErrUnknownColumn, n)
		}
	}
	return names, nil
}

// colRefs appends the names of the columns e references to names.
func colRefs(e sqlparse.Expr, names []string) []string {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		names = append(names, x.Name)
	case *sqlparse.Binary:
		names = colRefs(x.R, colRefs(x.L, names))
	case *sqlparse.Unary:
		names = colRefs(x.X, names)
	case *sqlparse.FuncCall:
		for _, a := range x.Args {
			names = colRefs(a, names)
		}
	}
	return names
}

func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// runProject evaluates a Project over its input as the input streams: each
// range's rows are projected beside the other ranges', and the outputs append
// to the result in range order — reserved up front when the zone maps bound
// a scan's rows.
func runProject(ctx context.Context, db Database, n *plan.Node, sel *sqlparse.Select, prof *Profile) (*Result, error) {
	in, err := openInput(ctx, db, n.Children[0], sel, prof)
	if err != nil {
		return nil, err
	}
	in.eval = func(rows *colstore.Batch) (*colstore.Batch, error) { return projectItems(sel, in.star, rows) }
	c := &collector{in: in}
	if in.pending == nil {
		// Over no rows first: the result's schema, and an item the engine
		// cannot evaluate fails the statement whatever the input holds.
		if empty, err := in.eval(colstore.NewBatch(in.out)); err != nil {
			in.fail(in.consumeStage(), err)
		} else {
			reserve := 0
			if len(in.joins) == 0 && in.residual == nil {
				for _, cur := range in.ranges {
					reserve += cur.MaxRows()
				}
			}
			c.out = colstore.NewBatchCap(empty.Schema, reserve)
		}
	}
	if err := in.walk(c); err != nil {
		return nil, err
	}
	if in.pending != nil {
		return nil, in.pending
	}
	projDone := startOp(ctx, prof, "project")
	projDone.extra = in.finishOps()
	projDone.Done(int64(c.out.Len()), fmt.Sprintf("%d output columns", len(c.out.Schema)))
	return finishSelect(ctx, c.out, sel, prof)
}

// projectItems evaluates the projection items over rows. starSchema is the
// schema `SELECT *` expands against: the table definition for a single-table
// scan, the join output otherwise.
func projectItems(sel *sqlparse.Select, starSchema colstore.Schema, data *colstore.Batch) (*colstore.Batch, error) {
	out := &colstore.Batch{}
	for i, item := range sel.Items {
		if item.Star {
			for _, c := range starSchema {
				ci := data.Schema.ColIndex(c.Name)
				out.Schema = append(out.Schema, c)
				out.Cols = append(out.Cols, data.Cols[ci])
			}
			continue
		}
		v, err := evalExpr(item.Expr, data)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr, i)
		}
		out.Schema = append(out.Schema, colstore.ColumnSchema{Name: name, Type: v.Type})
		out.Cols = append(out.Cols, v)
	}
	return out, nil
}

// finishSelect applies ORDER BY and LIMIT to the projected output.
func finishSelect(ctx context.Context, out *colstore.Batch, sel *sqlparse.Select, prof *Profile) (*Result, error) {
	if len(sel.OrderBy) > 0 {
		sortDone := startOp(ctx, prof, "sort")
		keys, err := orderKeys(sel, out.Schema)
		if err != nil {
			return nil, err
		}
		idx := make([]int, out.Len())
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return orderLess(sel, keys, out, idx[a], out, idx[b]) })
		out = out.Gather(idx)
		sortDone.Done(int64(out.Len()), fmt.Sprintf("%d sort keys", len(keys)))
	}
	if sel.Limit >= 0 && out.Len() > sel.Limit {
		limitDone := startOp(ctx, prof, "limit")
		out = out.Slice(0, sel.Limit)
		limitDone.Done(int64(out.Len()), fmt.Sprintf("LIMIT %d", sel.Limit))
	}
	return &Result{Batch: out}, nil
}

// orderKeys resolves ORDER BY's columns in an output schema.
func orderKeys(sel *sqlparse.Select, schema colstore.Schema) ([]int, error) {
	keys := make([]int, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		if keys[i] = schema.ColIndex(o.Col); keys[i] < 0 {
			return nil, fmt.Errorf("sqlexec: ORDER BY column %q not in output", o.Col)
		}
	}
	return keys, nil
}

// orderLess reports whether row i of a sorts strictly before row j of b — two
// batches of one schema — under ORDER BY's key columns keys, compared typed.
func orderLess(sel *sqlparse.Select, keys []int, a *colstore.Batch, i int, b *colstore.Batch, j int) bool {
	for k, ci := range keys {
		if c := a.Cols[ci].CompareAt(i, b.Cols[ci], j); c != 0 {
			return (c < 0) != sel.OrderBy[k].Desc
		}
	}
	return false
}

// aggChunkRows is the fixed partial-aggregation chunk size. Chunk boundaries
// depend only on the input row count — never on the parallel degree — which
// is what makes aggregate results bitwise identical at every degree.
const aggChunkRows = 4096

// aggItemPlan is one validated aggregate projection item: either a group-by
// column passthrough or an aggregate function call.
type aggItemPlan struct {
	isGroupCol bool
	colName    string
	fn         *sqlparse.FuncCall
	outName    string
}

// aggItemPlans validates the projection shape of an aggregate statement:
// every item is either a group-by column or an aggregate function call.
func aggItemPlans(sel *sqlparse.Select) ([]aggItemPlan, error) {
	plans := make([]aggItemPlan, 0, len(sel.Items))
	inGroup := func(name string) bool {
		for _, g := range sel.GroupBy {
			if g == name {
				return true
			}
		}
		return false
	}
	for i, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlexec: SELECT * not allowed with aggregation")
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr, i)
		}
		switch x := item.Expr.(type) {
		case *sqlparse.ColRef:
			if !inGroup(x.Name) {
				return nil, fmt.Errorf("sqlexec: column %q must appear in GROUP BY", x.Name)
			}
			plans = append(plans, aggItemPlan{isGroupCol: true, colName: x.Name, outName: name})
		case *sqlparse.FuncCall:
			if !plan.IsAggregateFunc(x.Name) {
				return nil, fmt.Errorf("sqlexec: %s is not an aggregate", x.Name)
			}
			if !x.Star && len(x.Args) != 1 {
				return nil, fmt.Errorf("sqlexec: %s takes one argument", x.Name)
			}
			plans = append(plans, aggItemPlan{fn: x, outName: name})
		default:
			return nil, fmt.Errorf("sqlexec: unsupported aggregate projection %s", item.Expr.String())
		}
	}
	return plans, nil
}

// aggregatePartial executes an Aggregate plan node up to, not including,
// finalization — the one partial-producing kernel under local execution and
// cluster peers alike. It folds fixed-size row chunks of the node's input as
// the input streams (walk.go) or, when the plan says Runs, the encoded runs
// of the leaf's blocks (foldRuns). The "aggregate" operator is left open for
// the caller to end with its output row count.
func aggregatePartial(ctx context.Context, db Database, agg *plan.Node, sel *sqlparse.Select, prof *Profile) (*aggPartialAcc, error) {
	plans, err := aggItemPlans(sel)
	if err != nil {
		return nil, err
	}
	in, err := openInput(ctx, db, agg.Children[0], sel, prof)
	if err != nil {
		return nil, err
	}
	f := newAggFold(in, sel, plans)
	if agg.Runs {
		err = f.foldRuns()
	} else {
		err = in.walk(f)
	}
	if err = cmp.Or(err, in.pending); err != nil {
		return nil, err
	}
	part := f.part
	part.op = startOp(ctx, prof, "aggregate")
	if !agg.Runs {
		part.op.Parallel = parallel.Default().Degree()
	}
	part.op.extra = in.finishOps()
	return part, nil
}

// aggOutputTypes resolves output column types (MIN/MAX keep their argument's
// type) from the input schema and the aggregate argument types.
// Deterministic in the table schema and statement alone, so every shard of a
// distributed aggregate resolves the same types.
func aggOutputTypes(plans []aggItemPlan, schema colstore.Schema, argTypes []colstore.Type) ([]colstore.Type, error) {
	outTypes := make([]colstore.Type, len(plans))
	for pi, p := range plans {
		if p.isGroupCol {
			outTypes[pi] = schema[schema.ColIndex(p.colName)].Type
			continue
		}
		switch p.fn.Name {
		case "COUNT":
			outTypes[pi] = colstore.TypeInt64
		case "SUM", "AVG":
			outTypes[pi] = colstore.TypeFloat64
		default:
			if p.fn.Star {
				return nil, fmt.Errorf("sqlexec: %s(*) not supported", p.fn.Name)
			}
			outTypes[pi] = argTypes[pi]
		}
	}
	return outTypes, nil
}

// buildAggOutput materializes the grouped aggregate states into the output
// batch in group first-appearance order. A global aggregate over zero rows
// still yields one row (COUNT 0, SUM and AVG +0.0; MIN/MAX error).
func buildAggOutput(sel *sqlparse.Select, part *aggPartialAcc) (*colstore.Batch, error) {
	n := len(part.count)
	out := &colstore.Batch{}
	for pi, p := range part.plans {
		it := &part.items[pi]
		var col *colstore.Vector
		switch {
		case n == 0:
			col = colstore.NewVector(part.outTypes[pi], 1)
			if len(sel.GroupBy) > 0 {
				break
			}
			if it.fn == "MIN" || it.fn == "MAX" {
				return nil, fmt.Errorf("sqlexec: %s over empty input", it.fn)
			}
			if err := col.AppendValue(int64(0)); err != nil { // widens to +0.0 for SUM and AVG
				return nil, err
			}
		case p.isGroupCol:
			gi := 0
			for i, name := range sel.GroupBy {
				if name == p.colName {
					gi = i
				}
			}
			col = part.keys[gi].Slice(0, n) // a view: two items may name one column
		case it.fn == "COUNT":
			col = colstore.IntVector(append([]int64(nil), part.count...))
		case it.fn == "SUM":
			col = colstore.FloatVector(it.sum)
		case it.fn == "AVG":
			avg := make([]float64, n)
			for g, s := range it.sum {
				if part.count[g] > 0 { // a shard may ship an empty state
					avg[g] = s / float64(part.count[g])
				}
			}
			col = colstore.FloatVector(avg)
		default: // MIN, MAX
			col = it.ext
		}
		out.Schema = append(out.Schema, colstore.ColumnSchema{Name: p.outName, Type: part.outTypes[pi]})
		out.Cols = append(out.Cols, col)
	}
	return out, nil
}
