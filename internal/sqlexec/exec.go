package sqlexec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

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

// RunSelect executes a SELECT statement. When sel.Profile is set (PROFILE
// SELECT ...) the result carries per-operator row counts and timings.
func RunSelect(db Database, sel *sqlparse.Select) (*Result, error) {
	return RunSelectCtx(context.Background(), db, sel)
}

// RunSelectCtx is RunSelect under a context: cancellation is honored at
// scan-block and aggregation-chunk boundaries (and between UDTF input
// batches), so a canceled query stops doing work within one block. The
// returned error wraps verr.ErrCanceled.
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
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch x := e.(type) {
		case *sqlparse.ColRef:
			add(x.Name)
		case *sqlparse.Binary:
			walk(x.L)
			walk(x.R)
		case *sqlparse.Unary:
			walk(x.X)
		case *sqlparse.FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
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

func mustProject(s colstore.Schema, cols []string) colstore.Schema {
	p, err := s.Project(cols)
	if err != nil {
		panic(err)
	}
	return p
}

// projectBatch evaluates the projection items over scanned (or joined) rows.
// starSchema is the schema `SELECT *` expands against: the table definition
// for a single-table scan, the join output otherwise.
func projectBatch(ctx context.Context, sel *sqlparse.Select, starSchema colstore.Schema, data *colstore.Batch, prof *Profile) (*Result, error) {
	projDone := startOp(ctx, prof, "project")
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
	projDone.Done(int64(out.Len()), fmt.Sprintf("%d output columns", len(out.Schema)))
	return finishSelect(ctx, out, sel, prof)
}

// finishSelect applies ORDER BY and LIMIT to the projected output.
func finishSelect(ctx context.Context, out *colstore.Batch, sel *sqlparse.Select, prof *Profile) (*Result, error) {
	if len(sel.OrderBy) > 0 {
		sortDone := startOp(ctx, prof, "sort")
		keys := make([]int, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			ci := out.Schema.ColIndex(o.Col)
			if ci < 0 {
				return nil, fmt.Errorf("sqlexec: ORDER BY column %q not in output", o.Col)
			}
			keys[i] = ci
		}
		idx := make([]int, out.Len())
		for i := range idx {
			idx[i] = i
		}
		var sortErr error
		sort.SliceStable(idx, func(a, b int) bool {
			for k, ci := range keys {
				c, err := colstore.CompareValues(out.Cols[ci].Value(idx[a]), out.Cols[ci].Value(idx[b]))
				if err != nil {
					sortErr = err
					return false
				}
				if c != 0 {
					if sel.OrderBy[k].Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
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

// aggChunkRows is the fixed partial-aggregation chunk size. Chunk boundaries
// depend only on the input row count — never on the parallel degree — which
// is what makes aggregate results bitwise identical at every degree.
const aggChunkRows = 4096

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn    string
	count int64
	sum   float64
	min   any
	max   any
}

func (a *aggState) add(v any) error {
	a.count++
	switch a.fn {
	case "SUM", "AVG":
		switch x := v.(type) {
		case int64:
			a.sum += float64(x)
		case float64:
			a.sum += x
		default:
			return fmt.Errorf("sqlexec: %s over non-numeric value %T", a.fn, v)
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

// addRun folds a run of n identical values in O(1). For the values the
// engine stores this is exactly what n add(v) calls produce: COUNT is pure
// arithmetic; MIN/MAX compare once (n-1 of the n comparisons are v vs v,
// which never replace); SUM/AVG multiply by the run length, which matches
// iterated addition bitwise for values exact in float64 (the contract in
// DESIGN.md §12 — NaN and signed-zero runs propagate identically either
// way: x*n is NaN iff x is, and ±0.0 accumulation keeps the IEEE sign
// rules of repeated addition since the accumulator starts at +0.0).
//
// The one place the fold is NOT equivalent is when x is finite but x*n
// overflows to ±Inf: iterated addition may never overflow (a negative
// accumulator can absorb the run, or an already-infinite accumulator stays
// put where acc+Inf would go NaN), so that case falls back to n real adds.
// An infinite x folds safely — acc+Inf repeated n times equals one add.
func (a *aggState) addRun(v any, n int) error {
	if n <= 0 {
		return nil
	}
	a.count += int64(n)
	switch a.fn {
	case "SUM", "AVG":
		var x float64
		switch t := v.(type) {
		case int64:
			x = float64(t)
		case float64:
			x = t
		default:
			return fmt.Errorf("sqlexec: %s over non-numeric value %T", a.fn, v)
		}
		prod := x * float64(n)
		if math.IsInf(prod, 0) && !math.IsInf(x, 0) {
			for j := 0; j < n; j++ {
				a.sum += x
			}
		} else {
			a.sum += prod
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

// merge folds another partial state for the same (group, aggregate) into a.
// Addition order is fixed by the reduction tree, so float sums are
// reproducible at any degree.
func (a *aggState) merge(b *aggState) error {
	a.count += b.count
	a.sum += b.sum
	if b.min != nil {
		if a.min == nil {
			a.min = b.min
		} else if c, err := colstore.CompareValues(b.min, a.min); err != nil {
			return err
		} else if c < 0 {
			a.min = b.min
		}
	}
	if b.max != nil {
		if a.max == nil {
			a.max = b.max
		} else if c, err := colstore.CompareValues(b.max, a.max); err != nil {
			return err
		} else if c > 0 {
			a.max = b.max
		}
	}
	return nil
}

func (a *aggState) result() any {
	switch a.fn {
	case "COUNT":
		return a.count
	case "SUM":
		return a.sum
	case "AVG":
		if a.count == 0 {
			return 0.0
		}
		return a.sum / float64(a.count)
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return nil
}

// aggItemPlan is one validated aggregate projection item: either a group-by
// column passthrough or an aggregate function call.
type aggItemPlan struct {
	isGroupCol bool
	colName    string
	fn         *sqlparse.FuncCall
	outName    string
}

// aggGroup is one group's accumulated state: the group-key values as first
// seen, plus one aggState per projection item (nil for group columns).
type aggGroup struct {
	keyVals []any
	states  []*aggState
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

// aggPartialAcc is an Aggregate node's accumulated, not yet finalized state:
// groups keyed by their rendered group key, the keys in first-appearance
// order, and the resolved output types. Local execution finalizes it
// (buildAggOutput); a cluster peer ships it to the router as an AggPartial.
type aggPartialAcc struct {
	plans    []aggItemPlan
	outTypes []colstore.Type
	groups   map[string]*aggGroup
	order    []string

	op  *opTimer // the open "aggregate" operator; done ends it
	how string   // what was folded: "N chunks" or "N runs (run-aware)"
}

// done ends the aggregate operator, reporting rows output rows.
func (p *aggPartialAcc) done(rows int) {
	p.op.Done(int64(rows), fmt.Sprintf("%d groups, %d aggregates, %s", rows, len(p.plans), p.how))
}

// group returns the accumulator for key. A key seen for the first time gets
// empty states and its first appearance recorded; fresh tells the caller to
// fill in the group's key values.
func (p *aggPartialAcc) group(key string) (g *aggGroup, fresh bool) {
	if g, ok := p.groups[key]; ok {
		return g, false
	}
	g = &aggGroup{states: make([]*aggState, len(p.plans))}
	for pi, pl := range p.plans {
		if pl.fn != nil {
			g.states[pi] = &aggState{fn: pl.fn.Name}
		}
	}
	p.groups[key] = g
	p.order = append(p.order, key)
	return g, true
}

// aggregatePartial executes an Aggregate plan node up to, not including,
// finalization — the one partial-producing kernel under local execution and
// cluster peers alike. When the plan says Runs it folds encoded runs straight
// off the segments; otherwise it materializes the node's input through the
// plan's access path and folds fixed-size row chunks. The "aggregate"
// operator is left open for the caller to end with its output row count.
func aggregatePartial(ctx context.Context, db Database, agg *plan.Node, sel *sqlparse.Select, prof *Profile) (*aggPartialAcc, error) {
	plans, err := aggItemPlans(sel)
	if err != nil {
		return nil, err
	}
	in := agg.Children[0]
	if agg.Runs {
		return aggregateRuns(ctx, db, in.Table, sel, plans, prof)
	}
	data, err := execData(ctx, db, in, sel, prof)
	if err != nil {
		return nil, err
	}
	aggDone := startOp(ctx, prof, "aggregate")
	aggDone.Parallel = parallel.Default().Degree()
	part, err := aggregateChunks(ctx, sel, plans, data)
	if err != nil {
		return nil, err
	}
	part.op = aggDone
	return part, nil
}

// aggregateChunks runs the deterministic chunked partial aggregation over
// already-scanned (or joined) rows. Chunk boundaries depend only on the row
// count, so results are bitwise identical at every parallel degree.
func aggregateChunks(ctx context.Context, sel *sqlparse.Select, plans []aggItemPlan, data *colstore.Batch) (*aggPartialAcc, error) {
	// Evaluate aggregate argument vectors once.
	argVecs := make([]*colstore.Vector, len(plans))
	argTypes := make([]colstore.Type, len(plans))
	for pi, p := range plans {
		if p.fn != nil && !p.fn.Star {
			v, err := evalExpr(p.fn.Args[0], data)
			if err != nil {
				return nil, err
			}
			argVecs[pi], argTypes[pi] = v, v.Type
		}
	}
	outTypes, err := aggOutputTypes(plans, data.Schema, argTypes)
	if err != nil {
		return nil, err
	}
	groupIdx := make([]int, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupIdx[i] = data.Schema.ColIndex(g)
	}
	// Partial aggregation: the scanned rows split into fixed-size contiguous
	// chunks (a function of data size only, never of degree), each chunk
	// builds its own hash table, and partials fold via parallel.Reduce's
	// deterministic tree. Merging adjacent chunks' first-appearance orders
	// yields exactly the serial first-appearance order, and float sums are
	// bitwise reproducible at every degree.
	n := data.Len()
	nchunks := (n + aggChunkRows - 1) / aggChunkRows
	part, err := parallel.Reduce(parallel.Default(), nchunks,
		func(ci int) (*aggPartialAcc, error) {
			// Cancellation is honored per 4096-row chunk.
			if err := verr.Canceled(ctx.Err()); err != nil {
				return nil, err
			}
			lo, hi := ci*aggChunkRows, (ci+1)*aggChunkRows
			if hi > n {
				hi = n
			}
			p := &aggPartialAcc{plans: plans, groups: map[string]*aggGroup{}}
			for r := lo; r < hi; r++ {
				var kb strings.Builder
				keyVals := make([]any, len(groupIdx))
				for i, gi := range groupIdx {
					v := data.Cols[gi].Value(r)
					keyVals[i] = v
					fmt.Fprintf(&kb, "%v\x00", v)
				}
				g, fresh := p.group(kb.String())
				if fresh {
					g.keyVals = keyVals
				}
				for pi, pl := range plans {
					if pl.fn == nil {
						continue
					}
					var v any = int64(1) // COUNT(*)
					if !pl.fn.Star {
						v = argVecs[pi].Value(r)
					}
					if err := g.states[pi].add(v); err != nil {
						return nil, err
					}
				}
			}
			return p, nil
		},
		func(a, b *aggPartialAcc) (*aggPartialAcc, error) {
			for _, key := range b.order {
				bg := b.groups[key]
				ag, ok := a.groups[key]
				if !ok {
					a.groups[key] = bg
					a.order = append(a.order, key)
					continue
				}
				for si, s := range ag.states {
					if s == nil {
						continue
					}
					if err := s.merge(bg.states[si]); err != nil {
						return nil, err
					}
				}
			}
			return a, nil
		})
	if err != nil {
		return nil, err
	}
	if part == nil { // zero rows scanned: no chunks ran
		part = &aggPartialAcc{plans: plans, groups: map[string]*aggGroup{}}
	}
	part.outTypes = outTypes
	part.how = fmt.Sprintf("%d chunks", nchunks)
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
// still yields one row (COUNT 0, SUM +0.0; MIN/MAX error).
func buildAggOutput(sel *sqlparse.Select, part *aggPartialAcc) (*colstore.Batch, error) {
	if len(sel.GroupBy) == 0 && len(part.order) == 0 {
		part.group("")
	}
	out := &colstore.Batch{}
	for pi, p := range part.plans {
		out.Schema = append(out.Schema, colstore.ColumnSchema{Name: p.outName, Type: part.outTypes[pi]})
		out.Cols = append(out.Cols, colstore.NewVector(part.outTypes[pi], len(part.order)))
	}
	for _, key := range part.order {
		g := part.groups[key]
		gi := 0
		for pi, p := range part.plans {
			var v any
			if p.isGroupCol {
				for i, name := range sel.GroupBy {
					if name == p.colName {
						gi = i
					}
				}
				v = g.keyVals[gi]
			} else {
				v = g.states[pi].result()
				if v == nil { // MIN/MAX over empty input
					return nil, fmt.Errorf("sqlexec: %s over empty input", p.fn.Name)
				}
			}
			if err := out.Cols[pi].AppendValue(v); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
