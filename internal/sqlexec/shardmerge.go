package sqlexec

import (
	"context"
	"fmt"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
	"verticadr/internal/verr"
)

// MergeShardRows combines per-shard results of a non-aggregate SELECT into
// the final result. Each batch is one shard's already-finished output (the
// shard applied WHERE, projection, its local ORDER BY and LIMIT); batches
// must be given in shard order.
//
// Without ORDER BY the shards concatenate in shard order — exactly how the
// single-process scan concatenates per-node segments. With ORDER BY the
// sorted shard outputs k-way merge, ties breaking toward the lowest shard
// index; a stable merge of stably-sorted runs is bitwise identical to the
// stable sort of their concatenation, which is what the single-process
// engine computes. LIMIT is reapplied to the merged stream (each shard
// could only truncate locally).
func MergeShardRows(ctx context.Context, sel *sqlparse.Select, batches []*colstore.Batch) (*Result, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("sqlexec: no shard results to merge")
	}
	schema := batches[0].Schema
	for i, b := range batches[1:] {
		if !b.Schema.Equal(schema) {
			return nil, fmt.Errorf("sqlexec: shard %d result schema mismatch", i+1)
		}
	}
	if err := verr.Canceled(ctx.Err()); err != nil {
		return nil, err
	}
	limit := sel.Limit
	if len(sel.OrderBy) == 0 {
		out := colstore.NewBatch(schema)
		for _, b := range batches {
			if limit >= 0 && out.Len()+b.Len() > limit {
				b = b.Slice(0, limit-out.Len())
			}
			if err := out.AppendBatch(b); err != nil {
				return nil, err
			}
			if limit >= 0 && out.Len() >= limit {
				break
			}
		}
		return &Result{Batch: out}, nil
	}
	keys, err := orderKeys(sel, schema)
	if err != nil {
		return nil, err
	}
	heads := make([]int, len(batches))
	// less reports whether shard a's head row sorts strictly before shard
	// b's; on equal keys neither does, and the scan below prefers the lowest
	// shard index, which is the stable tie-break.
	less := func(a, b int) bool { return orderLess(sel, keys, batches[a], heads[a], batches[b], heads[b]) }
	// Consecutive picks from one shard are consecutive rows of it, so the
	// output is emitted a run at a time — rows [lo, heads[run]) of shard run
	// are picked and not yet appended — column by column, never row by row.
	out := colstore.NewBatch(schema)
	run, lo := -1, 0
	flush := func() error {
		if run < 0 {
			return nil
		}
		return out.AppendRange(batches[run], lo, heads[run])
	}
	for n := 0; limit < 0 || n < limit; n++ {
		best := -1
		for si, b := range batches {
			if heads[si] < b.Len() && (best < 0 || less(si, best)) {
				best = si
			}
		}
		if best < 0 {
			break
		}
		if best != run {
			if err := flush(); err != nil {
				return nil, err
			}
			run, lo = best, heads[best]
		}
		heads[best]++
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return &Result{Batch: out}, nil
}
