package cluster

import (
	"context"

	"verticadr/internal/colstore"
	"verticadr/internal/server"
	"verticadr/internal/wire"
)

// nodeExt is the protocol extension a clustered vdr-serve registers: the
// two cluster roles of one node behind a single dispatch. Shard-level ops
// answer locally through the Peer; a front-door COPY — cl.load with Shard
// == -1, "ingest this batch as if COPY'd at this node" — routes through
// the Router instead, so rows land on their owning shards cluster-wide.
// On a plain (non-clustered) server the Peer alone serves the same op by
// loading through the local segmentation; the client cannot tell the
// difference, which is what makes one client API serve both shapes.
type nodeExt struct {
	peer   *Peer
	router *Router
}

// NodeExtension bundles a Peer and a Router into the extension handler of
// a clustered node, and binds the router to the node: its prepared
// statements live in p's server. Binding again to the same peer (a restarted
// listener) changes nothing.
func NodeExtension(p *Peer, r *Router) server.Extension {
	r.mu.Lock()
	r.node = p
	r.mu.Unlock()
	return &nodeExt{peer: p, router: r}
}

func (n *nodeExt) ServeExt(ctx context.Context, wreq *wire.Request, bodies [][]byte) (server.ExtReply, error) {
	op := wreq.Op
	if op != opLoad {
		return n.peer.ServeExt(ctx, wreq, bodies)
	}
	var req loadRequest
	if err := decodeRequest(op, wreq.Ext, &req); err != nil {
		return server.ExtReply{}, err
	}
	if err := wantBodies(op, bodies, 1); err != nil {
		return server.ExtReply{}, err
	}
	mPeerOps(op).Inc()
	if req.Shard != -1 {
		rep, err := n.peer.serveLoad(ctx, req, bodies[0])
		return server.ExtReply{Payload: rep}, err
	}
	var b *colstore.Batch
	err := n.router.withTable(ctx, req.Table, func(rt *routedTable) (err error) {
		b, err = decodeChunk(ctx, bodies[0], rt.def.Schema)
		return err
	})
	if err != nil {
		return server.ExtReply{}, err
	}
	if err := n.router.Load(ctx, req.Table, b); err != nil {
		return server.ExtReply{}, err
	}
	return server.ExtReply{Payload: &loadReply{Rows: b.Len()}}, nil
}
