package sqlexec

import (
	"context"
	"fmt"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

// aggregateRuns is the run-aware feeder of the aggregation kernel: when the
// plan's Aggregate node says Runs (no WHERE clause, every aggregate argument
// a bare column, star only under COUNT), the engine folds the typed block
// views colstore.ScanBlocks streams — encoded runs where every scanned
// column is RLE or dictionary encoded, so such segments aggregate in
// O(runs); dictionary codes or decoded rows otherwise.
//
// The decode-first feeder (the streamed chunk fold, walk.go) is
// bit-identical to it for the values the engine stores: blocks arrive in row
// order, groups keep first-appearance order, and foldSum documents why
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
	keyTypes := make([]colstore.Type, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupPos[i] = addCol(g)
		keyTypes[i] = def.Schema[def.Schema.ColIndex(g)].Type
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
	part := newAggPartialAcc(plans, keyTypes, outTypes)
	in := &aggBlock{keys: make([]colstore.BlockCol, len(groupPos)), args: make([]colstore.BlockCol, len(plans))}
	nruns := 0
	// The fold runs inside the scan callback; its time is booked under the
	// aggregate operator, not the scan's.
	var fold time.Duration
	// Segments scan serially in segment order — the same concatenation order
	// the decode-first path produces — so first-appearance group order and
	// float accumulation order match it exactly.
	for _, seg := range segs {
		err := seg.ScanBlocks(ctx, cols, &st, func(blk *colstore.Block) error {
			t0 := prof.now()
			in.n, in.runs = blk.Len(), blk.Runs
			nruns += in.n
			for i, gp := range groupPos {
				in.keys[i] = blk.Cols[gp]
			}
			for pi, ap := range argPos {
				if ap >= 0 {
					in.args[pi] = blk.Cols[ap]
				}
			}
			err := part.fold(in)
			fold += prof.now() - t0
			return err
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
	scanDone.Parallel = 1 // block streaming is serial by construction
	scanDone.extra = -fold
	scanDone.doneScan(st, int64(st.RowsOut), detail)

	part.op = startOp(ctx, prof, "aggregate")
	part.op.extra = fold
	part.how = fmt.Sprintf("%d runs (run-aware)", nruns)
	return part, nil
}
