package sqlexec

import (
	"context"
	"fmt"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
)

// The plan walker: runSelect, RunExplainCtx and RunPartialAggregate lower a
// statement through internal/plan and this file dispatches the resulting
// physical tree: an Aggregate's or Project's input streams through walk.go
// (scans through the plan's access path, joins), and exec.go holds the
// aggregation, projection, sort and limit kernels above it.

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
		return runProject(ctx, db, core, sel, prof)
	}
	return nil, fmt.Errorf("sqlexec: unexpected plan operator %s", core.Op)
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

// scanDetail describes the leaf's scan for its operator: what it read and
// what it pushed to storage. An index scan's names the blocks of its
// segments with a match it decoded and left untouched, and the segments that
// lacked the index (possible mid-DDL or mid-recovery) and were scanned.
func (in *input) scanDetail(st colstore.ScanStats) string {
	acc, kb := in.leaf.Access, st.BytesRead/1024
	var detail string
	switch {
	case in.runs:
		detail = fmt.Sprintf("%d segments, %d blocks scanned, %d evaluated compressed, %d KB, run-aware",
			in.segs, st.BlocksScanned, st.BlocksCompressed, kb)
	case in.leaf.Op == plan.OpIndexScan:
		detail = fmt.Sprintf("index(%s)", acc.IndexCol)
		for i, p := range acc.Preds[:acc.Probe] {
			if i > 0 {
				detail += " AND"
			}
			detail += fmt.Sprintf(" %s %v", p.Op, p.Val)
		}
		detail += fmt.Sprintf(", %d segments, %d blocks decoded, %d untouched, %d KB",
			in.segs, st.BlocksScanned, st.BlocksSkipped, kb)
	default:
		detail = fmt.Sprintf("%d segments, %d blocks scanned, %d skipped by zone maps", in.segs, st.BlocksScanned, st.BlocksSkipped)
		if st.BlocksAllMatch > 0 {
			detail += fmt.Sprintf(", %d passed whole by zone maps", st.BlocksAllMatch)
		}
		detail += fmt.Sprintf(", %d KB", kb)
		if st.BlocksCompressed > 0 {
			detail += fmt.Sprintf(", %d evaluated compressed", st.BlocksCompressed)
		}
	}
	if st.TailRows > 0 {
		detail += fmt.Sprintf(", %d tail rows", st.TailRows)
	}
	if in.fellBack > 0 {
		detail += fmt.Sprintf(", %d segments without index scanned", in.fellBack)
	}
	if pd := acc.Pushdown(); pd != "" {
		detail += ", pushdown " + pd
	}
	return detail
}
