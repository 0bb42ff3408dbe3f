package sqlexec

import (
	"context"
	"fmt"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
)

// Distributed aggregation support: a shard executes the scan + chunked
// partial aggregation locally and ships back per-group partial states
// (count, sum, min, max) instead of finalized values; the router folds the
// shard partials in shard order and finalizes once. Because the fold reuses
// aggState.merge — the same merge the intra-node chunk tree uses — and
// group first-appearance order composes across shards exactly as it does
// across chunks, the merged result is bitwise identical to running the
// query over the concatenated segments in one process (given the float
// exactness discipline of DESIGN.md §12; AVG divides only at the router).

// AggPartial is one shard's serializable partial-aggregation state.
type AggPartial struct {
	// OutTypes are the resolved output column types; every shard of the
	// same statement resolves identical types (they depend only on the
	// table schema and the statement).
	OutTypes []colstore.Type
	// Groups lists the shard's groups in first-appearance order.
	Groups []AggPartialGroup
}

// AggPartialGroup is one group's key and per-item partial states.
type AggPartialGroup struct {
	// Key is the rendered group key (the engine's internal map key).
	Key string
	// KeyVals are the group-by column values as first seen.
	KeyVals []any
	// States holds one partial state per projection item; nil entries mark
	// group-column passthrough items.
	States []*AggPartialState
}

// AggPartialState is the partial accumulation of one aggregate function
// over one group: COUNT/SUM ride Count/Sum, MIN/MAX ride the boxed
// extremes (nil only for states synthesized over zero rows).
type AggPartialState struct {
	Fn    string
	Count int64
	Sum   float64
	Min   any
	Max   any
}

// RunPartialAggregate executes an aggregate SELECT over db — typically a
// single-shard view — without finalizing: the statement's plan runs up to
// and including the Aggregate node's accumulation (the same access path and
// kernel local execution uses), and ORDER BY, LIMIT and AVG's division are
// left to the merging side. The group order in the result is the shard's
// first-appearance order.
func RunPartialAggregate(ctx context.Context, db Database, sel *sqlparse.Select) (*AggPartial, error) {
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
	part.done(len(part.order))
	out := &AggPartial{OutTypes: part.outTypes}
	for _, key := range part.order {
		g := part.groups[key]
		pg := AggPartialGroup{Key: key, KeyVals: g.keyVals}
		for _, st := range g.states {
			if st == nil {
				pg.States = append(pg.States, nil)
				continue
			}
			pg.States = append(pg.States, &AggPartialState{
				Fn: st.fn, Count: st.count, Sum: st.sum, Min: st.min, Max: st.max,
			})
		}
		out.Groups = append(out.Groups, pg)
	}
	return out, nil
}

// MergeAggPartials folds shard partials — in the order given, which must be
// shard order for determinism — and finalizes the aggregate: output built
// in merged first-appearance order, then ORDER BY and LIMIT from sel.
// parts must hold at least one non-nil partial.
func MergeAggPartials(ctx context.Context, sel *sqlparse.Select, parts []*AggPartial) (*Result, error) {
	plans, err := aggItemPlans(sel)
	if err != nil {
		return nil, err
	}
	acc := &aggPartialAcc{plans: plans, groups: map[string]*aggGroup{}}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if acc.outTypes == nil {
			acc.outTypes = p.OutTypes
		} else if len(p.OutTypes) != len(acc.outTypes) {
			return nil, fmt.Errorf("sqlexec: shard partial has %d output types, want %d", len(p.OutTypes), len(acc.outTypes))
		}
		for _, pg := range p.Groups {
			if len(pg.States) != len(plans) {
				return nil, fmt.Errorf("sqlexec: shard partial group has %d states, want %d", len(pg.States), len(plans))
			}
			g, ok := acc.groups[pg.Key]
			if !ok {
				g = &aggGroup{keyVals: pg.KeyVals}
				for _, st := range pg.States {
					if st == nil {
						g.states = append(g.states, nil)
					} else {
						g.states = append(g.states, &aggState{
							fn: st.Fn, count: st.Count, sum: st.Sum, min: st.Min, max: st.Max,
						})
					}
				}
				acc.groups[pg.Key] = g
				acc.order = append(acc.order, pg.Key)
				continue
			}
			for si, st := range pg.States {
				if st == nil || g.states[si] == nil {
					continue
				}
				if err := g.states[si].merge(&aggState{
					fn: st.Fn, count: st.Count, sum: st.Sum, min: st.Min, max: st.Max,
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	if acc.outTypes == nil {
		return nil, fmt.Errorf("sqlexec: no shard partials to merge")
	}
	out, err := buildAggOutput(sel, acc)
	if err != nil {
		return nil, err
	}
	return finishSelect(ctx, out, sel, nil)
}
