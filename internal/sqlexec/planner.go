package sqlexec

import (
	"context"
	"fmt"
	"sync"

	"verticadr/internal/colstore"
	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/verr"
)

// The plan walker: runSelect, RunExplainCtx and RunPartialAggregate lower a
// statement through internal/plan and this file executes the resulting
// physical tree — scans through the plan's access path, joins, and (in
// exec.go) the aggregation, projection, sort and limit kernels above them.

// RunExplainCtx plans the statement, executes it under a profile, and
// renders the plan tree with estimated next to actual row counts — one text
// row per operator, or a single JSON document row for EXPLAIN (FORMAT JSON).
func RunExplainCtx(ctx context.Context, db Database, ex *sqlparse.Explain) (*Result, error) {
	p, err := plan.Build(ex.Stmt, db)
	if err != nil {
		return nil, err
	}
	prof := NewProfile("")
	if _, err := execPlan(ctx, db, p, prof); err != nil {
		return nil, err
	}
	prof.finish()
	var ops []plan.OpStat
	for _, op := range prof.Ops() {
		ops = append(ops, plan.OpStat{Op: op.Op, Rows: op.Rows})
	}
	actuals, _ := p.MatchActuals(ops)
	out := &colstore.Batch{
		Schema: colstore.Schema{{Name: "QUERY PLAN", Type: colstore.TypeString}},
		Cols:   []*colstore.Vector{colstore.NewVector(colstore.TypeString, 0)},
	}
	if ex.FormatJSON {
		js, err := p.JSON(actuals)
		if err != nil {
			return nil, err
		}
		if err := out.Cols[0].AppendValue(string(js)); err != nil {
			return nil, err
		}
	} else {
		for _, line := range p.Text(actuals) {
			if err := out.Cols[0].AppendValue(line); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Batch: out}, nil
}

// coreNode returns the operator under the plan's Sort and Limit nodes. Those
// two are not walked: finishSelect applies them from the statement.
func coreNode(p *plan.Plan) *plan.Node {
	n := p.Root
	for n.Op == plan.OpSort || n.Op == plan.OpLimit {
		n = n.Children[0]
	}
	return n
}

// execPlan walks a physical plan to a finished result, dispatching on the
// core operator.
func execPlan(ctx context.Context, db Database, p *plan.Plan, prof *Profile) (*Result, error) {
	sel := p.Sel
	core := coreNode(p)
	switch core.Op {
	case plan.OpConst:
		return runConstSelect(ctx, sel, prof)
	case plan.OpUDTF, plan.OpDotProductJoin:
		return runUDTF(ctx, db, sel, core, prof)
	case plan.OpAggregate:
		part, err := aggregatePartial(ctx, db, core, sel, prof)
		if err != nil {
			return nil, err
		}
		out, err := buildAggOutput(sel, part)
		if err != nil {
			return nil, err
		}
		part.done(out.Len())
		return finishSelect(ctx, out, sel, prof)
	case plan.OpProject:
		in := core.Children[0]
		data, err := execData(ctx, db, in, sel, prof)
		if err != nil {
			return nil, err
		}
		// SELECT * expands against the table definition for single-table
		// scans (schema order, not reference order) and against the join
		// output otherwise.
		star := data.Schema
		if in.Op != plan.OpHashJoin && in.Alias == "" {
			def, err := db.TableDef(in.Table)
			if err != nil {
				return nil, err
			}
			star = def.Schema
		}
		return projectBatch(ctx, sel, star, data, prof)
	}
	return nil, fmt.Errorf("sqlexec: unexpected plan operator %s", core.Op)
}

// execData materializes the rows a scan or join subtree produces.
func execData(ctx context.Context, db Database, n *plan.Node, sel *sqlparse.Select, prof *Profile) (*colstore.Batch, error) {
	switch n.Op {
	case plan.OpSeqScan, plan.OpIndexScan:
		return execScan(ctx, db, n, sel, prof)
	case plan.OpHashJoin:
		l, err := execData(ctx, db, n.Children[0], sel, prof)
		if err != nil {
			return nil, err
		}
		r, err := execData(ctx, db, n.Children[1], sel, prof)
		if err != nil {
			return nil, err
		}
		return hashJoin(ctx, l, r, n, prof)
	}
	return nil, fmt.Errorf("sqlexec: unexpected plan input operator %s", n.Op)
}

// execScan runs a scan node: the node's columns (or, for a single-table
// statement, every column the statement references) through the plan's
// access path — sequential or index — with the residual applied.
func execScan(ctx context.Context, db Database, n *plan.Node, sel *sqlparse.Select, prof *Profile) (*colstore.Batch, error) {
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
	// The residual filter may need columns outside the projection.
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
	scan := scanSeq
	if n.Op == plan.OpIndexScan {
		scan = scanIndex
	}
	data, err := scan(ctx, segs, scanSchema, scanCols, cols, n.Access, prof)
	if err != nil {
		return nil, err
	}
	if n.Alias != "" {
		data = qualifySchema(data, n.Alias)
	}
	return data, nil
}

// scanColumns is the column list a scan reads: cols, or the table's first
// column when the statement references none — COUNT(*) and argument-less
// UDTFs still need row counts, and nil would mean every column.
func scanColumns(cols []string, schema colstore.Schema) []string {
	if len(cols) == 0 {
		return []string{schema[0].Name}
	}
	return cols
}

// filterRows evaluates a boolean filter over b and returns the indexes of
// the rows it keeps, appended to idx[:0].
func filterRows(where sqlparse.Expr, b *colstore.Batch, idx []int) ([]int, error) {
	keep, err := evalExpr(where, b)
	if err != nil {
		return nil, err
	}
	if keep.Type != colstore.TypeBool {
		return nil, fmt.Errorf("sqlexec: WHERE clause is not boolean")
	}
	idx = idx[:0]
	for r, k := range keep.Bools {
		if k {
			idx = append(idx, r)
		}
	}
	return idx, nil
}

// scanSegment streams one segment through the access path's exact and
// zone-map predicates (blocks decoding on pool; nil means serially) and
// returns the rows that also pass the residual.
func scanSegment(ctx context.Context, seg *colstore.Segment, schema colstore.Schema, cols []string, acc *plan.Access, pool *parallel.Pool, st *colstore.ScanStats) (*colstore.Batch, error) {
	// With no exact predicate and no residual the zone maps alone decide what
	// is delivered: the row count is known from the block headers, so the
	// accumulator is reserved once instead of doubling its way up.
	reserve := 0
	if acc.Primary == nil && acc.Residual == nil {
		curs, err := seg.ScanCursors(cols, nil, acc.Zone, 1)
		if err != nil {
			return nil, err
		}
		reserve = curs[0].MaxRows()
	}
	out := colstore.NewBatchCap(schema, reserve)
	var idx []int // residual-filter scratch, reused across batches
	err := seg.ParScanZoneWithStatsCtx(ctx, cols, acc.Primary, acc.Zone, pool, st, func(b *colstore.Batch) error {
		if acc.Residual == nil {
			return out.AppendBatch(b)
		}
		var err error
		if idx, err = filterRows(acc.Residual, b, idx); err != nil {
			return err
		}
		// Gather straight into the accumulator: no intermediate batch
		// materializes the rejected rows.
		return out.AppendGather(b, idx)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanSeq scans all segments of a table in parallel: the primary predicate
// is filtered exactly by the storage layer, zone predicates skip whole
// blocks (their conjuncts stay in the residual), and the residual filters
// each scanned batch. cols (of schema) are read, outCols of them returned.
func scanSeq(ctx context.Context, segs []*colstore.Segment, schema colstore.Schema, cols, outCols []string, acc *plan.Access, prof *Profile) (*colstore.Batch, error) {
	scanDone := startOp(ctx, prof, "scan")
	// Each segment scans on its own goroutine (the per-node parallelism the
	// executor always had); within a segment, blocks decode on a worker pool
	// whose degree divides the process-wide degree across segments, so total
	// concurrency tracks -j regardless of segment count.
	deg := parallel.Default().Degree()
	segDeg := (deg + len(segs) - 1) / max(len(segs), 1)
	pool := parallel.NewPool(segDeg)
	results := make([]*colstore.Batch, len(segs))
	errs := make([]error, len(segs))
	stats := make([]colstore.ScanStats, len(segs))
	var wg sync.WaitGroup
	for i, seg := range segs {
		wg.Add(1)
		go func(i int, seg *colstore.Segment) {
			defer wg.Done()
			b, err := scanSegment(ctx, seg, schema, cols, acc, pool, &stats[i])
			if err == nil {
				b, err = b.Project(outCols)
			}
			results[i], errs[i] = b, err
		}(i, seg)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	var merged colstore.ScanStats
	for i := range stats {
		merged.Add(stats[i])
	}
	detail := fmt.Sprintf("%d segments, degree %d, %d blocks scanned, %d skipped by zone maps, %d KB",
		len(segs), segDeg, merged.BlocksScanned, merged.BlocksSkipped, merged.BytesRead/1024)
	if merged.BlocksCompressed > 0 {
		detail += fmt.Sprintf(", %d evaluated compressed", merged.BlocksCompressed)
	}
	if merged.TailRows > 0 {
		detail += fmt.Sprintf(", %d tail rows", merged.TailRows)
	}
	scanDone.Parallel = segDeg * max(len(segs), 1)
	scanDone.doneScan(merged, int64(merged.RowsOut), detail+accessDetail(acc))
	// The residual ran inside the scan, batch by batch; the filter operator
	// reports what it kept.
	var filterDone *opTimer
	if acc.Residual != nil {
		filterDone = startOp(ctx, prof, "filter")
	}
	// One segment's batch is the answer; several concatenate in segment
	// order into a batch reserved for all of them.
	var out *colstore.Batch
	if len(results) == 1 {
		out = results[0]
	} else {
		rows := 0
		for _, b := range results {
			rows += b.Len()
		}
		out = colstore.NewBatchCap(mustProject(schema, outCols), rows)
		for _, b := range results {
			if err := out.AppendBatch(b); err != nil {
				return nil, err
			}
		}
	}
	if filterDone != nil {
		filterDone.Done(int64(out.Len()), fmt.Sprintf("residual WHERE %s", acc.Residual.String()))
	}
	return out, nil
}

// accessDetail names the predicates a sequential scan pushed to storage.
func accessDetail(acc *plan.Access) string {
	var detail string
	if p := acc.Primary; p != nil {
		detail += fmt.Sprintf(", pushdown %s %s %v", p.Col, p.Op, p.Val)
	}
	if len(acc.Zone) > 0 {
		detail += fmt.Sprintf(", %d zone predicates", len(acc.Zone))
	}
	return detail
}

// qualifySchema renames a scan's columns to their canonical "alias.column"
// form for join execution. Vectors are shared, not copied.
func qualifySchema(b *colstore.Batch, alias string) *colstore.Batch {
	out := &colstore.Batch{Cols: b.Cols}
	out.Schema = make(colstore.Schema, len(b.Schema))
	for i, c := range b.Schema {
		out.Schema[i] = colstore.ColumnSchema{Name: alias + "." + c.Name, Type: c.Type}
	}
	return out
}

// scanIndex serves a table scan through a B-tree secondary index: per
// segment, Lookup yields matching row positions in scan order and GatherRows
// decodes only the blocks holding them — O(log n + k) against the full
// scan's O(n). Segments missing the index (possible mid-DDL or mid-recovery)
// fall back to a full pushdown scan; row order per segment is identical
// either way, so results match the sequential path bitwise. cols (of schema)
// are read, outCols of them returned.
func scanIndex(ctx context.Context, segs []*colstore.Segment, schema colstore.Schema, cols, outCols []string, acc *plan.Access, prof *Profile) (*colstore.Batch, error) {
	scanDone := startOp(ctx, prof, "scan")
	gathered := colstore.NewBatch(schema)
	var merged colstore.ScanStats
	fellBack := 0
	for _, seg := range segs {
		if err := verr.Canceled(ctx.Err()); err != nil {
			return nil, err
		}
		var st colstore.ScanStats
		var rowids []uint32
		var handled bool
		if acc.Primary2 != nil {
			rowids, handled = seg.IndexLookupRange(acc.Primary, acc.Primary2)
		} else {
			rowids, handled = seg.IndexLookup(acc.Primary)
		}
		if !handled {
			fellBack++
			var zone []colstore.Pred
			if acc.Primary2 != nil {
				// The upper bound prunes blocks here; its conjunct in
				// Residual keeps the rows exact.
				zone = []colstore.Pred{*acc.Primary2}
			}
			err := seg.ScanZoneWithStatsCtx(ctx, cols, acc.Primary, zone, &st, gathered.AppendBatch)
			if err != nil {
				return nil, err
			}
			merged.Add(st)
			continue
		}
		b, err := seg.GatherRows(cols, rowids, &st)
		if err != nil {
			return nil, err
		}
		if err := gathered.AppendBatch(b); err != nil {
			return nil, err
		}
		merged.Add(st)
	}
	probe := fmt.Sprintf("%s %v", acc.Primary.Op, acc.Primary.Val)
	if acc.Primary2 != nil {
		probe += fmt.Sprintf(" AND %s %v", acc.Primary2.Op, acc.Primary2.Val)
	}
	detail := fmt.Sprintf("index(%s) %s, %d segments, %d blocks decoded, %d untouched, %d KB",
		acc.IndexCol, probe,
		len(segs), merged.BlocksScanned, merged.BlocksSkipped, merged.BytesRead/1024)
	if merged.TailRows > 0 {
		detail += fmt.Sprintf(", %d tail rows", merged.TailRows)
	}
	if fellBack > 0 {
		detail += fmt.Sprintf(", %d segments without index scanned", fellBack)
	}
	scanDone.Parallel = 1
	scanDone.doneScan(merged, int64(gathered.Len()), detail)
	out := gathered
	if acc.Residual != nil {
		filterDone := startOp(ctx, prof, "filter")
		idx, err := filterRows(acc.Residual, gathered, nil)
		if err != nil {
			return nil, err
		}
		out = colstore.NewBatch(schema)
		if err := out.AppendGather(gathered, idx); err != nil {
			return nil, err
		}
		filterDone.Done(int64(out.Len()), fmt.Sprintf("residual WHERE %s", acc.Residual.String()))
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
	joinDone.Done(int64(out.Len()), fmt.Sprintf("%s = %s, %d build rows", n.LeftKey, n.RightKey, right.Len()))
	if n.Residual != nil {
		filterDone := startOp(ctx, prof, "filter")
		idx, err := filterRows(n.Residual, out, nil)
		if err != nil {
			return nil, err
		}
		out = out.Gather(idx)
		filterDone.Done(int64(out.Len()), fmt.Sprintf("join filter %s", n.Residual.String()))
	}
	return out, nil
}
