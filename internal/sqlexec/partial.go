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
// partial aggregation locally and ships back per-group partial states
// (count, sum, min, max) instead of finalized values; the router folds the
// shard partials in shard order and finalizes once. Because the fold is
// aggPartialAcc.merge — the same merge the intra-node chunk tree uses —
// and group first-appearance order composes across shards exactly as it
// does across chunks, the merged result is bitwise identical to running the
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
	// Key is the group's identity, rendered injectively from the key values
	// (renderKey): what the merging side matches groups on.
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
	part.done(len(part.count))
	return part.export(), nil
}

// export renders the accumulated state as the wire partial: once per group,
// not per row.
func (p *aggPartialAcc) export() *AggPartial {
	out := &AggPartial{OutTypes: p.outTypes, Groups: make([]AggPartialGroup, len(p.count))}
	var key []byte
	for g := range out.Groups {
		key = renderKey(key[:0], p.keys, g)
		pg := AggPartialGroup{Key: string(key), KeyVals: make([]any, len(p.keys)), States: make([]*AggPartialState, len(p.items))}
		for i, k := range p.keys {
			pg.KeyVals[i] = k.Value(g)
		}
		for pi := range p.items {
			it := &p.items[pi]
			if it.fn == "" {
				continue
			}
			st := &AggPartialState{Fn: it.fn, Count: p.count[g]}
			switch it.fn {
			case "SUM", "AVG":
				st.Sum = it.sum[g]
			case "MIN":
				st.Min = it.ext.Value(g)
			case "MAX":
				st.Max = it.ext.Value(g)
			}
			pg.States[pi] = st
		}
		out.Groups[g] = pg
	}
	return out
}

// importAggPartial rebuilds a shard's wire partial as dense typed state,
// together with its groups' rendered keys as the one identity column the
// merge admits them under. A shard's values come off the wire: anything that
// does not fit the statement is an error.
func importAggPartial(plans []aggItemPlan, p *AggPartial) (*aggPartialAcc, []colstore.BlockCol, error) {
	acc := newAggPartialAcc(plans, p.OutTypes)
	keys := colstore.NewVector(colstore.TypeString, len(p.Groups))
	for _, pg := range p.Groups {
		if len(pg.States) != len(plans) {
			return nil, nil, fmt.Errorf("sqlexec: shard partial group has %d states, want %d", len(pg.States), len(plans))
		}
		if acc.keys == nil {
			acc.keys = make([]*colstore.Vector, len(pg.KeyVals))
			for i, v := range pg.KeyVals {
				t, err := valueType(v)
				if err != nil {
					return nil, nil, err
				}
				acc.keys[i] = colstore.NewVector(t, len(p.Groups))
			}
		}
		if len(pg.KeyVals) != len(acc.keys) {
			return nil, nil, fmt.Errorf("sqlexec: shard partial group has %d key values, want %d", len(pg.KeyVals), len(acc.keys))
		}
		keys.Strs = append(keys.Strs, pg.Key)
		for i, v := range pg.KeyVals {
			if err := acc.keys[i].AppendValue(v); err != nil {
				return nil, nil, err
			}
		}
		var count int64
		for pi, st := range pg.States {
			it := &acc.items[pi]
			if (st == nil) != (it.fn == "") {
				return nil, nil, fmt.Errorf("sqlexec: shard partial state %d does not match the statement", pi)
			}
			if st == nil {
				continue
			}
			count = st.Count
			ext := st.Min
			switch it.fn {
			case "SUM", "AVG":
				it.sum = append(it.sum, st.Sum)
				continue
			case "COUNT":
				continue
			case "MAX":
				ext = st.Max
			}
			if it.ext == nil {
				it.ext = colstore.NewVector(p.OutTypes[pi], len(p.Groups))
			}
			if err := it.ext.AppendValue(ext); err != nil {
				return nil, nil, fmt.Errorf("sqlexec: shard partial %s state: %w", it.fn, err)
			}
		}
		acc.count = append(acc.count, count)
	}
	return acc, []colstore.BlockCol{{Vals: keys}}, nil
}

func valueType(v any) (colstore.Type, error) {
	switch v.(type) {
	case int64:
		return colstore.TypeInt64, nil
	case float64:
		return colstore.TypeFloat64, nil
	case string:
		return colstore.TypeString, nil
	case bool:
		return colstore.TypeBool, nil
	}
	return 0, fmt.Errorf("sqlexec: shard partial group key of type %T", v)
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
	var acc *aggPartialAcc
	for _, p := range parts {
		if p == nil {
			continue
		}
		if len(p.OutTypes) != len(plans) {
			return nil, fmt.Errorf("sqlexec: shard partial has %d output types, want %d", len(p.OutTypes), len(plans))
		}
		if acc == nil {
			acc = newAggPartialAcc(plans, p.OutTypes)
		}
		if !slices.Equal(p.OutTypes, acc.outTypes) {
			return nil, fmt.Errorf("sqlexec: shard partials disagree on output types: %v, %v", p.OutTypes, acc.outTypes)
		}
		shard, keys, err := importAggPartial(plans, p)
		if err != nil {
			return nil, err
		}
		if err := acc.merge(shard, keys); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("sqlexec: no shard partials to merge")
	}
	out, err := buildAggOutput(sel, acc)
	if err != nil {
		return nil, err
	}
	return finishSelect(ctx, out, sel, nil)
}
