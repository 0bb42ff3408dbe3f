package sqlexec

import (
	"context"
	"fmt"

	"verticadr/internal/colstore"
	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/verr"
)

// materializedRef executes a plan the way the engine did before its inputs
// streamed: every scan or join input is one whole batch — each segment's
// surviving rows concatenated in segment order, a join gathered from two
// whole sides — and an aggregate cuts that batch into 4096-row chunks whose
// partials merge through parallel.Reduce. It is the reference the streamed
// walker is held to, bit for bit and PROFILE row count for row count, the way
// gatherRow is PREDICT's. Plans it has no materializing form of (constants,
// UDTFs, run-aware aggregates) go through execPlan.
func materializedRef(ctx context.Context, db Database, p *plan.Plan, prof *Profile) (*Result, error) {
	sel, core := p.Sel, coreNode(p)
	switch {
	case core.Op == plan.OpAggregate && !core.Runs:
		plans, err := aggItemPlans(sel)
		if err != nil {
			return nil, err
		}
		data, err := refData(ctx, db, core.Children[0], sel, prof)
		if err != nil {
			return nil, err
		}
		aggDone := startOp(ctx, prof, "aggregate")
		part, err := refAggregate(ctx, sel, plans, data)
		if err != nil {
			return nil, err
		}
		part.op = aggDone
		out, err := buildAggOutput(sel, part)
		if err != nil {
			return nil, err
		}
		part.done(out.Len())
		return finishSelect(ctx, out, sel, prof)
	case core.Op == plan.OpProject:
		data, err := refData(ctx, db, core.Children[0], sel, prof)
		if err != nil {
			return nil, err
		}
		star, err := inputSchema(db, core.Children[0])
		if err != nil {
			return nil, err
		}
		projDone := startOp(ctx, prof, "project")
		out, err := projectItems(sel, star, data)
		if err != nil {
			return nil, err
		}
		projDone.done(int64(out.Len()), func() string { return "" })
		return finishSelect(ctx, out, sel, prof)
	}
	return execPlan(ctx, db, p, prof)
}

// refData materializes the rows a scan or join subtree produces.
func refData(ctx context.Context, db Database, n *plan.Node, sel *sqlparse.Select, prof *Profile) (*colstore.Batch, error) {
	if n.Op == plan.OpHashJoin {
		l, err := refData(ctx, db, n.Children[0], sel, prof)
		if err != nil {
			return nil, err
		}
		r, err := refData(ctx, db, n.Children[1], sel, prof)
		if err != nil {
			return nil, err
		}
		return hashJoin(ctx, l, r, n, prof)
	}
	def, err := db.TableDef(n.Table)
	if err != nil {
		return nil, err
	}
	segs, err := db.Segments(n.Table)
	if err != nil {
		return nil, err
	}
	cols := n.Cols
	if cols == nil {
		if cols, err = collectCols(sel, def.Schema); err != nil {
			return nil, err
		}
	}
	cols = scanColumns(cols, def.Schema)
	scanCols := cols
	if n.Access.Residual != nil {
		extra, err := collectCols(&sqlparse.Select{Where: n.Access.Residual}, def.Schema)
		if err != nil {
			return nil, err
		}
		scanCols = union(cols, extra)
	}
	scanSchema, err := def.Schema.Project(scanCols)
	if err != nil {
		return nil, err
	}
	if n.Access.Residual != nil {
		if _, err := filterRows(n.Access.Residual, colstore.NewBatch(scanSchema), nil); err != nil {
			return nil, err
		}
	}
	var data *colstore.Batch
	if n.Op == plan.OpIndexScan {
		data, err = refIndex(ctx, segs, scanSchema, scanCols, cols, n.Access, prof)
	} else {
		data, err = refScan(ctx, segs, scanSchema, scanCols, cols, n.Access, prof)
	}
	if err != nil {
		return nil, err
	}
	if n.Alias != "" {
		data = &colstore.Batch{Schema: qualify(data.Schema, n.Alias), Cols: data.Cols}
	}
	return data, nil
}

// scanSeg drains one cursor over the whole of seg's scan through fn, adding
// what it read to st when st is non-nil.
func scanSeg(ctx context.Context, seg *colstore.Segment, cols []string, preds []colstore.Pred, st *colstore.ScanStats, fn func(*colstore.Batch) error) error {
	curs, err := seg.ScanCursors(cols, preds, 1)
	if err != nil {
		return err
	}
	c := curs[0]
	defer func() {
		c.Close()
		if st != nil {
			st.Add(c.Stats())
		}
	}()
	for {
		b, err := c.Next(ctx)
		if err != nil || b == nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// refScan scans every segment whole, in segment order, applying the residual
// to each batch, and concatenates what survives.
func refScan(ctx context.Context, segs []*colstore.Segment, schema colstore.Schema, cols, outCols []string, acc *plan.Access, prof *Profile) (*colstore.Batch, error) {
	scanDone := startOp(ctx, prof, "scan")
	out := colstore.NewBatch(schema)
	var st colstore.ScanStats
	var idx []int
	for _, seg := range segs {
		err := scanSeg(ctx, seg, cols, acc.Preds, &st, func(b *colstore.Batch) error {
			if acc.Residual == nil {
				return out.AppendBatch(b)
			}
			var err error
			if idx, err = filterRows(acc.Residual, b, idx); err != nil {
				return err
			}
			return out.AppendGather(b, idx)
		})
		if err != nil {
			return nil, err
		}
	}
	scanDone.doneScan(st, int64(st.RowsOut), func() string { return "" })
	if acc.Residual != nil {
		filterDone := startOp(ctx, prof, "filter")
		filterDone.done(int64(out.Len()), func() string { return "" })
	}
	return out.Project(outCols)
}

// refIndex serves an index scan without the index cursor: each segment is
// read whole and the rows IndexLookup (IndexLookupRange) names are picked out
// of it, since row positions are scan order, then kept where every predicate
// after the probe holds under CompareValues; a segment without the index is
// scanned under all the predicates. The residual then filters everything
// gathered at once.
func refIndex(ctx context.Context, segs []*colstore.Segment, schema colstore.Schema, cols, outCols []string, acc *plan.Access, prof *Profile) (*colstore.Batch, error) {
	scanDone := startOp(ctx, prof, "scan")
	out := colstore.NewBatch(schema)
	for _, seg := range segs {
		rowids, handled := seg.IndexLookup(&acc.Preds[0])
		if acc.Probe == 2 {
			rowids, handled = seg.IndexLookupRange(&acc.Preds[0], &acc.Preds[1])
		}
		if !handled {
			if err := scanSeg(ctx, seg, cols, acc.Preds, nil, out.AppendBatch); err != nil {
				return nil, err
			}
			continue
		}
		all, err := seg.ReadAll(nil)
		if err != nil {
			return nil, err
		}
		var pos []int
		for _, r := range rowids {
			keep := true
			for _, p := range acc.Preds[acc.Probe:] {
				c, err := colstore.CompareValues(all.Cols[all.Schema.ColIndex(p.Col)].Value(int(r)), p.Val)
				if err != nil {
					return nil, err
				}
				keep = keep && p.Op.Match(c)
			}
			if keep {
				pos = append(pos, int(r))
			}
		}
		rows, err := all.Gather(pos).Project(cols)
		if err != nil {
			return nil, err
		}
		if err := out.AppendBatch(rows); err != nil {
			return nil, err
		}
	}
	scanDone.done(int64(out.Len()), func() string { return "" })
	if acc.Residual != nil {
		filterDone := startOp(ctx, prof, "filter")
		idx, err := filterRows(acc.Residual, out, nil)
		if err != nil {
			return nil, err
		}
		out = out.Gather(idx)
		filterDone.done(int64(out.Len()), func() string { return "" })
	}
	return out.Project(outCols)
}

// hashJoin joins two materialized sides on single equality keys, emitting
// matches in probe-row-major, build-row-ascending order — exactly what a
// nested-loop join over the same inputs produces, so results are
// deterministic and reference-checkable. Key equality follows the engine's
// CompareValues semantics: ints compare exactly, mixed int/float widens to
// float64, ±0.0 coincide, and NaN compares equal to everything — NaN build
// rows go to a side list that matches every probe row, and a NaN probe row
// matches every build row. The build table is typed (keyInterner): dense key
// IDs heading int32 row chains.
func hashJoin(ctx context.Context, left, right *colstore.Batch, n *plan.Node, prof *Profile) (*colstore.Batch, error) {
	joinDone := startOp(ctx, prof, "join")
	li := left.Schema.ColIndex(n.LeftKey)
	ri := right.Schema.ColIndex(n.RightKey)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("sqlexec: join keys %s, %s not in scan output", n.LeftKey, n.RightKey)
	}
	lv, rv := left.Cols[li], right.Cols[ri]
	numeric := func(t colstore.Type) bool { return t == colstore.TypeInt64 || t == colstore.TypeFloat64 }
	if lv.Type != rv.Type && !(numeric(lv.Type) && numeric(rv.Type)) {
		return nil, fmt.Errorf("sqlexec: join keys %s (%v) and %s (%v) are not comparable", n.LeftKey, lv.Type, n.RightKey, rv.Type)
	}
	// Two INTEGER keys compare exactly; any FLOAT side compares as float64.
	keys := keyInterner{join: lv.Type == colstore.TypeFloat64 || rv.Type == colstore.TypeFloat64}
	// Build: each build row gets its key's dense ID; head[id] starts the chain
	// of that key's rows through next. Chaining the rows in descending order
	// leaves every chain ascending.
	nl, nr := left.Len(), right.Len()
	ids := make([]int32, max(nr, aggChunkRows))
	keys.ids(colstore.BlockCol{Vals: rv}, ids[:nr], true)
	head, next := make([]int32, keys.len()), make([]int32, nr)
	for i := range head {
		head[i] = -1
	}
	var nanBuild []int
	for j := nr - 1; j >= 0; j-- {
		if id := ids[j]; id != idNaN {
			next[j], head[id] = head[id], int32(j)
		}
	}
	for j, id := range ids[:nr] {
		if id == idNaN {
			nanBuild = append(nanBuild, j)
		}
	}
	// Probe a chunk of keys at a time: a typed pass resolves the chunk's IDs,
	// then the matches are emitted.
	lIdx, rIdx := make([]int, 0, nl), make([]int, 0, nl)
	var chunk colstore.Vector
	for lo := 0; lo < nl; lo += aggChunkRows {
		if err := verr.Canceled(ctx.Err()); err != nil {
			return nil, err
		}
		hi := min(lo+aggChunkRows, nl)
		lv.SliceInto(&chunk, lo, hi)
		keys.ids(colstore.BlockCol{Vals: &chunk}, ids[:hi-lo], false)
		for i := lo; i < hi; i++ {
			id := ids[i-lo]
			if id == idNaN {
				// NaN equals every build row: a probe chunk of NaNs emits
				// chunk x build rows, so cancellation is checked in here too.
				for j := 0; j < nr; j++ {
					if j%aggChunkRows == aggChunkRows-1 {
						if err := verr.Canceled(ctx.Err()); err != nil {
							return nil, err
						}
					}
					lIdx, rIdx = append(lIdx, i), append(rIdx, j)
				}
				continue
			}
			// Merge the key's chain with the match-everything NaN build rows,
			// keeping ascending build order.
			j, b := int32(-1), 0
			if id >= 0 {
				j = head[id]
			}
			for j >= 0 || b < len(nanBuild) {
				if j < 0 || (b < len(nanBuild) && nanBuild[b] < int(j)) {
					lIdx, rIdx = append(lIdx, i), append(rIdx, nanBuild[b])
					b++
				} else {
					lIdx, rIdx = append(lIdx, i), append(rIdx, int(j))
					j = next[j]
				}
			}
		}
	}
	lg := left.Gather(lIdx)
	rg := right.Gather(rIdx)
	out := &colstore.Batch{
		Schema: append(append(colstore.Schema{}, lg.Schema...), rg.Schema...),
		Cols:   append(append([]*colstore.Vector{}, lg.Cols...), rg.Cols...),
	}
	joinDone.done(int64(out.Len()), func() string {
		return fmt.Sprintf("%s = %s, %d build rows", n.LeftKey, n.RightKey, right.Len())
	})
	if n.Residual != nil {
		filterDone := startOp(ctx, prof, "filter")
		idx, err := filterRows(n.Residual, out, nil)
		if err != nil {
			return nil, err
		}
		out = out.Gather(idx)
		filterDone.done(int64(out.Len()), func() string { return fmt.Sprintf("join filter %s", n.Residual.String()) })
	}
	return out, nil
}

// refAggregate runs the chunked partial aggregation over materialized rows:
// every argument evaluated over the whole input, 4096-row chunks folded into
// their own partials, the partials merged by parallel.Reduce.
func refAggregate(ctx context.Context, sel *sqlparse.Select, plans []aggItemPlan, data *colstore.Batch) (*aggPartialAcc, error) {
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
	keyVecs := make([]*colstore.Vector, len(sel.GroupBy))
	keyTypes := make([]colstore.Type, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		keyVecs[i] = data.Cols[data.Schema.ColIndex(g)]
		keyTypes[i] = keyVecs[i].Type
	}
	n := data.Len()
	nchunks := (n + aggChunkRows - 1) / aggChunkRows
	part, err := parallel.Reduce(parallel.Default(), nchunks,
		func(ci int) (*aggPartialAcc, error) {
			if err := verr.Canceled(ctx.Err()); err != nil {
				return nil, err
			}
			lo, hi := ci*aggChunkRows, min((ci+1)*aggChunkRows, n)
			b := &aggBlock{n: hi - lo, keys: make([]colstore.BlockCol, len(keyVecs)), args: make([]colstore.BlockCol, len(argVecs))}
			for i, v := range keyVecs {
				b.keys[i].Vals = v.Slice(lo, hi)
			}
			for pi, v := range argVecs {
				if v != nil {
					b.args[pi].Vals = v.Slice(lo, hi)
				}
			}
			p := newAggPartialAcc(plans, keyTypes, outTypes)
			return p, p.fold(b)
		},
		func(a, b *aggPartialAcc) (*aggPartialAcc, error) { return a, a.merge(b) })
	if err != nil {
		return nil, err
	}
	if part == nil {
		part = newAggPartialAcc(plans, keyTypes, outTypes)
	}
	part.how = fmt.Sprintf("%d chunks", nchunks)
	return part, nil
}
