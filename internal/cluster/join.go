package cluster

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
)

// Routed joins run where the data is. The statement keeps the single-node
// plan's shape — the FROM table is the probe side and stays sharded, every
// joined table is a build side — and each joined table meets the probe side
// in one of two ways, chosen from the catalog alone:
//
//   - co-located: both sides are SEGMENTED BY HASH of their INTEGER join-key
//     columns, so every build row a shard's probe rows can match is already
//     on that shard. Nothing moves.
//   - broadcast: the router fetches the build side once — only the columns
//     the statement needs, filtered by the WHERE conjuncts that name only
//     that table — concatenates the shards' rows in shard order, which is
//     the single-node scan order, and ships the batch with the statement to
//     every shard.
//
// Either way each shard then runs the whole statement through the one plan
// walker, and the router only merges (scatter). The result is bitwise the
// single-node one: a shard's join output is probe-row-major over its own
// segment of the FROM table with matches in build-row order, so the shards'
// outputs in shard order are the single-node join's output, and group
// first-appearance order composes across shards as it does across segments.
//
// A join whose build side is neither co-located nor under the byte limit
// needs a repartitioning shuffle between the peers, which does not exist:
// it fails with verr.ErrJoinTooLarge instead of taking router memory
// proportional to a table.

const (
	strategyColocated = "co-located"
	strategyBroadcast = "broadcast"
)

// joinPlan is a routed join resolved against the router's catalog cache.
type joinPlan struct {
	// sel is the normalized statement: the peers run it, the router merges
	// by it.
	sel    *sqlparse.Select
	inputs []plan.JoinInput
	// local[i]: on every shard, the rows of inputs[i] in the join are that
	// shard's own — the FROM table, and each co-located joined table.
	local []bool
	// gen is the cache generation the plan was resolved under.
	gen uint64
	// builds and notes are fetchBuilds' output: the broadcast tables to ship,
	// and one EXPLAIN line per joined table.
	builds []buildTable
	notes  []string
}

// segmentedOn reports whether key ("alias.column") names the INTEGER column
// that in's table is segmented by hash of. INTEGER only: equal keys must
// hash equally, and a FLOAT key equals values of other bit patterns (±0.0,
// an INTEGER on the other side) and, as NaN, everything.
func segmentedOn(in plan.JoinInput, key string) bool {
	col := strings.TrimPrefix(key, in.Alias+".")
	ci := in.Def.Schema.ColIndex(col)
	return in.Def.Seg.Kind == catalog.SegHash && in.Def.Seg.Column == col &&
		ci >= 0 && in.Def.Schema[ci].Type == colstore.TypeInt64
}

// planJoin normalizes a join against the cached definitions and picks each
// joined table's strategy. A statement that does not resolve is resolved
// once more against fresh definitions: the cache may predate DDL that ran
// through another node's router and that no reply has revealed yet.
func (r *Router) planJoin(ctx context.Context, sel *sqlparse.Select) (*joinPlan, error) {
	tableDef := func(name string) (*catalog.TableDef, error) {
		rt, err := r.table(ctx, name)
		if err != nil {
			return nil, err
		}
		return rt.def, nil
	}
	jp := &joinPlan{gen: r.tableGen()}
	var err error
	if jp.sel, jp.inputs, err = plan.NormalizeJoin(sel, tableDef); err != nil {
		names := []string{sel.From}
		for _, j := range sel.Joins {
			names = append(names, j.Table)
		}
		r.forget(names...)
		if jp.sel, jp.inputs, err = plan.NormalizeJoin(sel, tableDef); err != nil {
			return nil, err
		}
	}
	jp.local = make([]bool, len(jp.inputs))
	jp.local[0] = true
	for i, in := range jp.inputs[1:] {
		for p, probe := range jp.inputs[:i+1] {
			if strings.HasPrefix(in.ProbeKey, probe.Alias+".") {
				jp.local[i+1] = jp.local[p] && segmentedOn(probe, in.ProbeKey) && segmentedOn(in, in.BuildKey)
			}
		}
	}
	return jp, nil
}

// buildSQL is the statement that reads a broadcast build side off one shard:
// the columns the join needs, under the conjuncts only that table decides.
func buildSQL(in plan.JoinInput) string {
	sel := &sqlparse.Select{From: in.Table, Where: in.Where, Limit: -1}
	for _, c := range in.Cols {
		sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: &sqlparse.ColRef{Name: c}})
	}
	return sel.String()
}

// fetchBuilds is the join's first round: every joined table that is not
// co-located is read off the shards into one batch, under the byte limit.
func (r *Router) fetchBuilds(ctx context.Context, jp *joinPlan) error {
	for i, in := range jp.inputs[1:] {
		if jp.local[i+1] {
			mJoins(strategyColocated).Inc()
			_, col, _ := strings.Cut(in.BuildKey, ".")
			telemetry.SpanFromContext(ctx).StartChild("router.join.build",
				telemetry.L("table", in.Table), telemetry.L("strategy", strategyColocated)).End()
			jp.notes = append(jp.notes, fmt.Sprintf("join %s: %s on %s", in.Alias, strategyColocated, col))
			continue
		}
		mJoins(strategyBroadcast).Inc()
		b, rows, err := r.fetchBuild(ctx, i, in)
		if err != nil {
			return err
		}
		jp.builds = append(jp.builds, *b)
		jp.notes = append(jp.notes, fmt.Sprintf("join %s: %s %d rows, %d KB", in.Alias, strategyBroadcast, rows, len(b.chunk)>>10))
	}
	return nil
}

// fetchBuild reads the table at JOIN position join off every shard and
// concatenates the shards' rows in shard order — the single-node scan order.
func (r *Router) fetchBuild(ctx context.Context, join int, in plan.JoinInput) (*buildTable, int, error) {
	ctx, span := telemetry.StartChildCtx(ctx, "router.join.build",
		telemetry.L("table", in.Table), telemetry.L("strategy", strategyBroadcast))
	defer span.End()
	tooLarge := func(bytes int) error {
		return fmt.Errorf("cluster: %w: join %s is not co-located and %q is %d KB (limit %d KB)",
			verr.ErrJoinTooLarge, in.Alias, in.Table, bytes>>10, r.buildLimit>>10)
	}
	// The shards' raw chunks, copied off their connections: their sum is
	// checked before anything decodes, and they then decode into one batch.
	replies := make([]*shardReply, r.topo.Shards)
	chunks := make([][]byte, r.topo.Shards)
	err := r.eachShard(ctx, opSelect, shardRequest{SQL: buildSQL(in), BuildLimit: r.buildLimit},
		func(shard int, rep *shardReply, chunk []byte) error {
			replies[shard], chunks[shard] = rep, append([]byte(nil), chunk...)
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	bytes := 0
	for _, chunk := range chunks {
		bytes += len(chunk)
	}
	if bytes > r.buildLimit {
		return nil, 0, tooLarge(bytes)
	}
	schema, err := in.Def.Schema.Project(in.Cols)
	if err != nil {
		return nil, 0, err
	}
	rows := colstore.NewBatch(schema)
	for shard, rep := range replies {
		if !rep.Schema.Equal(schema) {
			return nil, 0, fmt.Errorf("cluster: shard %d answered for %q with columns %v, the catalog has %v", shard, in.Table, rep.Schema, schema)
		}
		if err := vft.DecodeChunkInto(rows, chunks[shard]); err != nil {
			return nil, 0, fmt.Errorf("cluster: shard %d build reply: %w", shard, err)
		}
	}
	chunk, err := encodeChunk(ctx, rows)
	if err != nil {
		return nil, 0, err
	}
	if len(chunk) > r.buildLimit {
		return nil, 0, tooLarge(len(chunk))
	}
	span.SetAttr("rows", strconv.Itoa(rows.Len()))
	span.SetAttr("bytes", strconv.Itoa(len(chunk)))
	return &buildTable{Join: join, Schema: schema, chunk: chunk}, rows.Len(), nil
}

// prepareJoin resolves a join and fetches what it must ship.
func (r *Router) prepareJoin(ctx context.Context, sel *sqlparse.Select) (*joinPlan, error) {
	jp, err := r.planJoin(ctx, sel)
	if err != nil {
		return nil, err
	}
	return jp, r.fetchBuilds(ctx, jp)
}

// joinSelect runs a join in two rounds — build sides in, statement out — and
// merges. When a reply along the way revealed that the definitions the join
// was resolved against are stale (the cache generation moved), its answer
// may rest on a strategy the catalog no longer supports: it is discarded and
// the join runs once more on fresh definitions.
func (r *Router) joinSelect(ctx context.Context, sel *sqlparse.Select) (*sqlexec.Result, error) {
	ctx, span := telemetry.StartChildCtx(ctx, "router.join")
	defer span.End()
	for attempt := 0; ; attempt++ {
		jp, err := r.prepareJoin(ctx, sel)
		var res *sqlexec.Result
		if err == nil {
			res, err = r.scatter(ctx, jp.sel, plan.IsAggregate(jp.sel), jp.builds)
		}
		if attempt == 0 && jp != nil && r.tableGen() != jp.gen {
			continue
		}
		return res, err
	}
}
