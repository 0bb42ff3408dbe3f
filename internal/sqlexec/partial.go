package sqlexec

import (
	"context"
	"fmt"
	"slices"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
)

// Distributed aggregation support: a shard executes the scan + chunked
// partial aggregation locally and ships back its per-group partial state
// instead of finalized values; the router folds the shard partials in shard
// order and finalizes once. Because the fold is aggPartialAcc.merge — the
// same merge the intra-node chunk tree uses — and group first-appearance
// order composes across shards exactly as it does across chunks, the merged
// result is bitwise identical to running the query over the concatenated
// segments in one process (given the float exactness discipline of DESIGN.md
// §12; AVG divides only at the router).
//
// A partial is one batch, rows = groups in first-appearance order (none for
// a shard that scanned no row): the GROUP BY key columns in their own types,
// one INTEGER "count" column — every aggregate over a group counted the same
// rows — then one column per projection item that keeps more than the count:
// SUM and AVG their FLOAT sum, MIN and MAX the extreme so far in the
// argument's type. Typed columns cross a wire as a vft chunk, exact to the
// bit.

// RunPartialAggregate executes an aggregate SELECT over db — typically a
// single-shard view — without finalizing: the statement's plan runs up to
// and including the Aggregate node's accumulation (the same access path and
// kernel local execution uses), and ORDER BY, LIMIT and AVG's division are
// left to the merging side. The result is the partial batch; its columns are
// the accumulator's own vectors.
func RunPartialAggregate(ctx context.Context, db Database, sel *sqlparse.Select) (*colstore.Batch, error) {
	p, err := plan.Build(sel, db)
	if err != nil {
		return nil, err
	}
	agg := coreNode(p)
	if agg.Op != plan.OpAggregate {
		return nil, fmt.Errorf("sqlexec: partial aggregation of a non-aggregate statement (plan root %s)", agg.Op)
	}
	part, err := aggregatePartial(ctx, db, agg, p.Sel, nil)
	if err != nil {
		return nil, err
	}
	part.done(len(part.count))
	out := &colstore.Batch{}
	add := func(name string, v *colstore.Vector) {
		out.Schema = append(out.Schema, colstore.ColumnSchema{Name: name, Type: v.Type})
		out.Cols = append(out.Cols, v)
	}
	for i, k := range part.keys {
		add(p.Sel.GroupBy[i], k)
	}
	add("count", colstore.IntVector(part.count))
	for pi := range part.items {
		switch it := &part.items[pi]; it.fn {
		case "SUM", "AVG":
			add(part.plans[pi].outName, colstore.FloatVector(it.sum))
		case "MIN", "MAX":
			add(part.plans[pi].outName, it.ext)
		}
	}
	return out, nil
}

// partialOfBatch reads a shard's partial batch as accumulator state, its
// vectors shared with b. The batch came off a wire: anything that does not
// fit the statement is an error.
func partialOfBatch(sel *sqlparse.Select, plans []aggItemPlan, b *colstore.Batch) (*aggPartialAcc, error) {
	if b == nil {
		return nil, fmt.Errorf("sqlexec: missing shard partial")
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("sqlexec: shard partial: %w", err)
	}
	nkeys := len(sel.GroupBy)
	want := nkeys + 1
	for _, pl := range plans {
		if pl.fn != nil && pl.fn.Name != "COUNT" {
			want++
		}
	}
	if len(b.Cols) != want {
		return nil, fmt.Errorf("sqlexec: shard partial has %d columns, the statement needs %d", len(b.Cols), want)
	}
	count := b.Cols[nkeys]
	if count.Type != colstore.TypeInt64 {
		return nil, fmt.Errorf("sqlexec: shard partial count column is %v", count.Type)
	}
	if nkeys == 0 && count.Len() > 1 {
		return nil, fmt.Errorf("sqlexec: shard partial of an ungrouped aggregate has %d groups", count.Len())
	}
	for _, c := range count.Ints {
		if c < 0 {
			return nil, fmt.Errorf("sqlexec: shard partial counts %d rows in a group", c)
		}
	}
	acc := &aggPartialAcc{
		plans:    plans,
		outTypes: make([]colstore.Type, len(plans)),
		keys:     b.Cols[:nkeys],
		count:    count.Ints,
		items:    make([]aggItemAcc, len(plans)),
	}
	state := b.Cols[nkeys+1:]
	for pi, pl := range plans {
		if pl.isGroupCol {
			acc.outTypes[pi] = b.Schema[slices.Index(sel.GroupBy, pl.colName)].Type
			continue
		}
		it := &acc.items[pi]
		it.fn = pl.fn.Name
		switch it.fn {
		case "COUNT":
			acc.outTypes[pi] = colstore.TypeInt64
		case "SUM", "AVG":
			if state[0].Type != colstore.TypeFloat64 {
				return nil, fmt.Errorf("sqlexec: shard partial %s column is %v", it.fn, state[0].Type)
			}
			acc.outTypes[pi], it.sum, state = colstore.TypeFloat64, state[0].Floats, state[1:]
		default: // MIN, MAX
			acc.outTypes[pi], it.ext, state = state[0].Type, state[0], state[1:]
		}
	}
	return acc, nil
}

// MergeAggPartials folds shard partial batches — in the order given, which
// must be shard order for determinism — and finalizes the aggregate: output
// built in merged first-appearance order, then ORDER BY and LIMIT from sel.
func MergeAggPartials(ctx context.Context, sel *sqlparse.Select, parts []*colstore.Batch) (*Result, error) {
	plans, err := aggItemPlans(sel)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("sqlexec: no shard partials to merge")
	}
	var acc *aggPartialAcc
	for i, b := range parts {
		shard, err := partialOfBatch(sel, plans, b)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			keyTypes := make([]colstore.Type, len(shard.keys))
			for k, v := range shard.keys {
				keyTypes[k] = v.Type
			}
			acc = newAggPartialAcc(plans, keyTypes, shard.outTypes)
		} else if !b.Schema.Equal(parts[0].Schema) {
			return nil, fmt.Errorf("sqlexec: shard %d partial schema mismatch", i)
		}
		if err := acc.merge(shard); err != nil {
			return nil, err
		}
	}
	out, err := buildAggOutput(sel, acc)
	if err != nil {
		return nil, err
	}
	return finishSelect(ctx, out, sel, nil)
}
