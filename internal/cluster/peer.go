package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"verticadr/internal/colstore"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/vertica"
	"verticadr/internal/vft"
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
func (p *Peer) ServeExt(ctx context.Context, op string, payload json.RawMessage) (any, error) {
	mPeerOps(op).Inc()
	switch op {
	case opSelect, opAgg:
		var req shardRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, err
		}
		return p.serveShards(ctx, op, req)
	case opLoad:
		var req loadRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, err
		}
		return p.serveLoad(ctx, req)
	case opExec:
		var req execRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, err
		}
		return p.serveExec(ctx, req)
	case opTableDef:
		var req tableDefRequest
		if err := decodeRequest(op, payload, &req); err != nil {
			return nil, err
		}
		return p.db.TableDef(req.Table)
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
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown op %q", op)
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
// control over one snapshot view restricted to the requested shards, and
// its batch ships as one vft chunk. The view pins its own snapshot; the
// shards of one routed query are separate requests and may observe
// different commit timestamps, exactly as separate nodes of a real cluster
// answer from their own commit horizons.
func (p *Peer) serveShards(ctx context.Context, op string, req shardRequest) (*shardReply, error) {
	if err := p.checkShards(req.Shards); err != nil {
		return nil, err
	}
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return nil, err
	}
	reply := &shardReply{}
	_, err = p.srv.Admit(ctx, req.SQL, func(ctx context.Context) (*sqlexec.Result, error) {
		view, release := p.db.ShardView(req.Shards)
		defer release()
		b, err := runShards(ctx, op, view, stmt)
		if err != nil {
			return nil, err
		}
		reply.Schema = b.Schema
		if reply.Chunk, err = vft.EncodeChunk(b); err != nil {
			return nil, err
		}
		mPeerShardRows.Add(int64(b.Len()))
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// serveLoad appends a router-split batch to one shard (or, with Shard ==
// -1, through the peer's own segmentation — the single-node passthrough).
func (p *Peer) serveLoad(ctx context.Context, req loadRequest) (*loadReply, error) {
	if err := verrCanceled(ctx); err != nil {
		return nil, err
	}
	def, err := p.db.TableDef(req.Table)
	if err != nil {
		return nil, err
	}
	b, err := vft.DecodeChunk(req.Chunk, def.Schema)
	if err != nil {
		return nil, err
	}
	if req.Shard == -1 {
		err = p.db.Load(req.Table, b)
	} else {
		if err := p.checkShards([]int{req.Shard}); err != nil {
			return nil, err
		}
		err = p.db.LoadAt(req.Table, req.Shard, b)
	}
	if err != nil {
		return nil, err
	}
	mPeerLoadRows.Add(int64(b.Len()))
	return &loadReply{Rows: b.Len()}, nil
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
	return &execReply{}, nil
}
