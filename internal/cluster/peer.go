package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vertica"
)

var (
	mPeerOps = func(op string) *telemetry.Counter {
		return telemetry.Default().Counter("cluster_peer_ops_total", telemetry.L("op", op))
	}
	mPeerShardRows = telemetry.Default().Counter("cluster_peer_shard_rows_total")
	mPeerLoadRows  = telemetry.Default().Counter("cluster_peer_load_rows_total")
)

// Peer serves the cluster's shard-level protocol on one node. It is a
// server.Extension: registered on the node's TCPServer it answers the
// cl.* ops against the node's local database, whose segment layout is the
// cluster's shard layout (the database opens with Topology.Shards nodes
// and only the shards placed on this peer ever receive rows).
//
// Read ops run under the serving layer's admission control (Server.Admit),
// so a saturated peer sheds shard work with verr.ErrOverloaded and the
// router retries the shard on a replica. Write ops (cl.load) bypass
// admission: a shed write would falsely mark the replica stale, and the
// WAL group commit already paces concurrent loads.
type Peer struct {
	srv  *server.Server
	db   *vertica.DB
	topo Topology
	node int
}

// NewPeer wraps srv as cluster peer node of topo (not validated against
// the database's node count; the caller opens the database with
// topo.Shards nodes).
func NewPeer(srv *server.Server, topo Topology, node int) *Peer {
	return &Peer{srv: srv, db: srv.Session().DB, topo: topo, node: node}
}

var _ server.Extension = (*Peer)(nil)

// ServeExt dispatches one cluster op.
func (p *Peer) ServeExt(ctx context.Context, op string, payload json.RawMessage, bodies [][]byte) (any, [][]byte, error) {
	mPeerOps(op).Inc()
	switch op {
	case opSelect, opAgg:
		var req shardRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, nil, err
		}
		if err := req.setBodies(op, bodies); err != nil {
			return nil, nil, err
		}
		rep, chunk, err := p.serveShards(ctx, op, req)
		return rep, [][]byte{chunk}, err
	case opLoad:
		var req loadRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, nil, err
		}
		if err := wantBodies(op, bodies, 1); err != nil {
			return nil, nil, err
		}
		rep, err := p.serveLoad(ctx, req, bodies[0])
		return rep, nil, err
	case opExec:
		var req execRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, nil, err
		}
		rep, err := p.serveExec(ctx, req)
		return rep, nil, err
	case opTableDef:
		var req tableDefRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, nil, err
		}
		rep := &tableDefReply{Epoch: p.db.CatalogEpoch()}
		def, err := p.db.TableDef(req.Table)
		if err != nil {
			return nil, nil, err
		}
		rep.TableDef = *def
		return rep, nil, nil
	case opHealth:
		h := p.srv.Health()
		return healthReply{
			Node:      p.node,
			Shards:    p.topo.OwnedShards(p.node),
			Peers:     p.topo.Addrs,
			Epoch:     p.db.CatalogEpoch(),
			Inflight:  int(h.Inflight),
			Queued:    int(h.Queued),
			Saturated: h.Saturated,
		}, nil, nil
	}
	return nil, nil, fmt.Errorf("cluster: unknown op %q", op)
}

// checkShards validates a requested shard list against this peer's
// ownership.
func (p *Peer) checkShards(shards []int) error {
	if len(shards) == 0 {
		return fmt.Errorf("cluster: empty shard list")
	}
	for _, s := range shards {
		if s < 0 || s >= p.topo.Shards {
			return fmt.Errorf("cluster: no shard %d", s)
		}
		if !p.topo.Owns(p.node, s) {
			return fmt.Errorf("cluster: peer %d does not own shard %d", p.node, s)
		}
	}
	return nil
}

func parseSelect(sql string) (*sqlparse.Select, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("cluster: expected SELECT, got %T", stmt)
	}
	return sel, nil
}

// runShards is what a read op runs over the shard view, down to the batch
// the peer ships back: a SELECT to its finished rows — or, under cl.agg, to
// its partial aggregation state — and an EXPLAIN to its plan lines.
func runShards(ctx context.Context, op string, view sqlexec.Database, stmt sqlparse.Statement) (*colstore.Batch, error) {
	var res *sqlexec.Result
	var err error
	switch s := stmt.(type) {
	case *sqlparse.Select:
		if op == opAgg {
			return sqlexec.RunPartialAggregate(ctx, view, s)
		}
		res, err = sqlexec.RunSelectCtx(ctx, view, s)
	case *sqlparse.Explain:
		res, err = sqlexec.RunExplainCtx(ctx, view, s)
	default:
		err = fmt.Errorf("cluster: %s of a %T", op, stmt)
	}
	if err != nil {
		return nil, err
	}
	return res.Batch, nil
}

// serveShards answers the read ops: the statement runs under admission
// control over one snapshot view restricted to the requested shards — with
// a join's broadcast build sides overlaid — and its batch ships as one vft
// chunk. The view pins its own snapshot; the shards of one routed query are
// separate requests and may observe different commit timestamps, exactly as
// separate nodes of a real cluster answer from their own commit horizons.
func (p *Peer) serveShards(ctx context.Context, op string, req shardRequest) (*shardReply, []byte, error) {
	if err := p.checkShards(req.Shards); err != nil {
		return nil, nil, err
	}
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return nil, nil, err
	}
	builds, err := overlayBuilds(ctx, stmt, req.Builds)
	if err != nil {
		return nil, nil, err
	}
	reply := &shardReply{Epoch: p.db.CatalogEpoch()}
	var chunk []byte
	_, err = p.srv.Admit(ctx, req.SQL, func(ctx context.Context) (*sqlexec.Result, error) {
		view, release := p.db.ShardView(req.Shards)
		defer release()
		if builds != nil {
			view = &overlayView{Database: view, tables: builds}
		}
		b, err := runShards(ctx, op, view, stmt)
		if err != nil {
			return nil, err
		}
		reply.Schema = b.Schema
		if chunk, err = encodeChunk(ctx, b); err != nil {
			return nil, err
		}
		if req.BuildLimit > 0 && len(chunk) > req.BuildLimit {
			return nil, fmt.Errorf("cluster: %w: shards %v alone hold %d rows, %d KB (limit %d KB)",
				verr.ErrJoinTooLarge, req.Shards, b.Len(), len(chunk)>>10, req.BuildLimit>>10)
		}
		mPeerShardRows.Add(int64(b.Len()))
		return nil, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return reply, chunk, nil
}

// maxJoinBuildBytes bounds a join's broadcast build side, as the chunk bytes
// a router ships to every shard: what a router holds for one join is this
// much per joined table, never a function of the probe table's size.
const maxJoinBuildBytes = 64 << 20

// overlayTable is a broadcast build side as the executor reads it: a
// definition (the shipped columns) over one in-memory segment.
type overlayTable struct {
	def *catalog.TableDef
	seg *colstore.Segment
}

// overlayView answers for the overlaid tables and defers to the shard view
// for everything else.
type overlayView struct {
	sqlexec.Database
	tables map[string]overlayTable
}

func (v *overlayView) TableDef(name string) (*catalog.TableDef, error) {
	if t, ok := v.tables[name]; ok {
		return t.def, nil
	}
	return v.Database.TableDef(name)
}

func (v *overlayView) Segments(name string) ([]*colstore.Segment, error) {
	if t, ok := v.tables[name]; ok {
		return []*colstore.Segment{t.seg}, nil
	}
	return v.Database.Segments(name)
}

var _ sqlexec.Database = (*overlayView)(nil)

// overlayBuilds decodes a request's broadcast build sides and points the
// statement's JOINs at them: the table at JOIN position i is renamed
// "table#i" — distinct per position, so a self-join's two sides stay apart —
// keeping its alias, which is all the rest of the statement refers to.
// Everything here came off a wire: any mismatch is an error. No builds, no
// overlay.
func overlayBuilds(ctx context.Context, stmt sqlparse.Statement, builds []buildTable) (map[string]overlayTable, error) {
	if len(builds) == 0 {
		return nil, nil
	}
	sel, _ := stmt.(*sqlparse.Select)
	if ex, ok := stmt.(*sqlparse.Explain); ok {
		sel = ex.Stmt
	}
	if sel == nil {
		return nil, fmt.Errorf("cluster: build tables shipped with a %T", stmt)
	}
	// The names the statement itself spells: an overlay may shadow none.
	stored := map[string]bool{sel.From: true}
	for _, j := range sel.Joins {
		stored[j.Table] = true
	}
	tables := make(map[string]overlayTable, len(builds))
	seen := make([]bool, len(sel.Joins))
	for _, b := range builds {
		if b.Join < 0 || b.Join >= len(sel.Joins) {
			return nil, fmt.Errorf("cluster: build table for JOIN %d of a statement with %d", b.Join, len(sel.Joins))
		}
		if seen[b.Join] {
			return nil, fmt.Errorf("cluster: two build tables for JOIN %d", b.Join)
		}
		seen[b.Join] = true
		j := &sel.Joins[b.Join]
		name := fmt.Sprintf("%s#%d", j.Table, b.Join)
		if stored[name] {
			return nil, fmt.Errorf("cluster: build table name %q is taken by the statement", name)
		}
		if len(b.chunk) > maxJoinBuildBytes {
			return nil, fmt.Errorf("cluster: %w: build table %q is %d KB (limit %d KB)",
				verr.ErrJoinTooLarge, j.Table, len(b.chunk)>>10, maxJoinBuildBytes>>10)
		}
		def := &catalog.TableDef{Name: name, Schema: b.Schema}
		if err := catalog.ValidateShape(def); err != nil {
			return nil, err
		}
		rows, err := decodeChunk(ctx, b.chunk, b.Schema)
		if err != nil {
			return nil, fmt.Errorf("cluster: build table %q: %w", j.Table, err)
		}
		// One unsealed block: sealing would encode rows the join decodes
		// straight back.
		seg := colstore.NewSegment(b.Schema, rows.Len()+1)
		if err := seg.Append(rows); err != nil {
			return nil, err
		}
		tables[name] = overlayTable{def: def, seg: seg}
		if j.Alias == "" {
			j.Alias = j.Table
		}
		j.Table = name
	}
	return tables, nil
}

// serveLoad appends a router-split batch to one shard (or, with Shard ==
// -1, through the peer's own segmentation — the single-node passthrough).
func (p *Peer) serveLoad(ctx context.Context, req loadRequest, chunk []byte) (*loadReply, error) {
	if err := verrCanceled(ctx); err != nil {
		return nil, err
	}
	epoch := p.db.CatalogEpoch()
	def, err := p.db.TableDef(req.Table)
	if err != nil {
		return nil, err
	}
	b, err := decodeChunk(ctx, chunk, def.Schema)
	if err != nil {
		return nil, err
	}
	if req.Shard == -1 {
		err = p.db.Load(req.Table, b)
	} else {
		if err := p.checkShards([]int{req.Shard}); err != nil {
			return nil, err
		}
		if req.HashCol != hashCol(def) {
			return &loadReply{Refused: true, Epoch: epoch}, nil
		}
		err = p.db.LoadAt(req.Table, req.Shard, b)
	}
	if err != nil {
		return nil, err
	}
	mPeerLoadRows.Add(int64(b.Len()))
	return &loadReply{Rows: b.Len(), Epoch: epoch}, nil
}

// serveExec runs a broadcast DDL statement locally. INSERT and SELECT are
// refused: the router splits INSERTs itself (a broadcast would duplicate
// rows) and SELECTs travel through the shard ops.
func (p *Peer) serveExec(ctx context.Context, req execRequest) (*execReply, error) {
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sqlparse.Select, *sqlparse.Explain, *sqlparse.Insert:
		return nil, fmt.Errorf("cluster: %T is not broadcastable", stmt)
	}
	if _, err := p.db.RunStatement(ctx, stmt, req.SQL); err != nil {
		return nil, err
	}
	return &execReply{Epoch: p.db.CatalogEpoch()}, nil
}
