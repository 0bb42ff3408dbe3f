package sqlexec

import (
	"context"
	"fmt"
	"strings"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

// aggregateRuns is the run-aware aggregation kernel: when the plan's
// Aggregate node says Runs (no WHERE clause, every aggregate argument a bare
// column, star only under COUNT), the engine aggregates directly over the
// encoded runs colstore.ScanRuns streams — one aggState.addRun per (run,
// aggregate) instead of one add per row, so RLE and dictionary segments
// aggregate in O(runs). Group keys (including group-by on dict columns) are
// probed once per run.
//
// The decode-first kernel (aggregateChunks over a scan) is bit-identical to
// it for the values the engine stores: runs arrive in row order, groups keep
// first-appearance order, key formatting is shared, and addRun documents why
// folding a run equals iterating it.
func aggregateRuns(ctx context.Context, db Database, table string, sel *sqlparse.Select, plans []aggItemPlan, prof *Profile) (*aggPartialAcc, error) {
	def, err := db.TableDef(table)
	if err != nil {
		return nil, err
	}
	if _, err := collectCols(sel, def.Schema); err != nil {
		return nil, err
	}
	segs, err := db.Segments(table)
	if err != nil {
		return nil, err
	}
	// Scan columns: group-by columns then aggregate arguments, deduped.
	var cols []string
	colPos := map[string]int{}
	addCol := func(n string) int {
		if i, ok := colPos[n]; ok {
			return i
		}
		colPos[n] = len(cols)
		cols = append(cols, n)
		return len(cols) - 1
	}
	groupPos := make([]int, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupPos[i] = addCol(g)
	}
	argPos := make([]int, len(plans))
	argTypes := make([]colstore.Type, len(plans))
	for pi, p := range plans {
		argPos[pi] = -1
		if p.fn != nil && !p.fn.Star {
			name := p.fn.Args[0].(*sqlparse.ColRef).Name
			argPos[pi] = addCol(name)
			argTypes[pi] = def.Schema[def.Schema.ColIndex(name)].Type
		}
	}
	outTypes, err := aggOutputTypes(plans, def.Schema, argTypes)
	if err != nil {
		return nil, err
	}
	cols = scanColumns(cols, def.Schema)

	scanDone := startOp(ctx, prof, "scan")
	var st colstore.ScanStats
	part := &aggPartialAcc{plans: plans, outTypes: outTypes, groups: map[string]*aggGroup{}}
	var kb strings.Builder
	nruns := 0
	// Segments scan serially in segment order — the same concatenation order
	// the decode-first path produces — so first-appearance group order and
	// float accumulation order match it exactly.
	for _, seg := range segs {
		err := seg.ScanRuns(ctx, cols, &st, func(vals []any, n int) error {
			nruns++
			kb.Reset()
			for _, gp := range groupPos {
				fmt.Fprintf(&kb, "%v\x00", vals[gp])
			}
			g, fresh := part.group(kb.String())
			if fresh {
				g.keyVals = make([]any, len(groupPos))
				for i, gp := range groupPos {
					g.keyVals[i] = vals[gp]
				}
			}
			for pi, p := range plans {
				if p.fn == nil {
					continue
				}
				var v any = int64(1) // COUNT(*)
				if argPos[pi] >= 0 {
					v = vals[argPos[pi]]
				}
				if err := g.states[pi].addRun(v, n); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	detail := fmt.Sprintf("%d segments, %d blocks scanned, %d evaluated compressed, %d KB, run-aware",
		len(segs), st.BlocksScanned, st.BlocksCompressed, st.BytesRead/1024)
	if st.TailRows > 0 {
		detail += fmt.Sprintf(", %d tail rows", st.TailRows)
	}
	scanDone.Parallel = 1 // run streaming is serial by construction
	scanDone.doneScan(st, int64(st.RowsOut), detail)

	part.op = startOp(ctx, prof, "aggregate")
	part.how = fmt.Sprintf("%d runs (run-aware)", nruns)
	return part, nil
}
