package cluster

import (
	"context"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/server"
	"verticadr/internal/wire"
)

// Client-side wrappers over the cl.* ops, for the unified verticadr.Client:
// they work identically against a plain vdr-serve (the Peer loads through
// the local segmentation) and a clustered one (the node routes the batch to
// its owning shards cluster-wide).

// ClientTableDef fetches a table's definition over an open connection.
func ClientTableDef(ctx context.Context, c *server.Client, table string) (*catalog.TableDef, error) {
	var rep tableDefReply
	if err := clientCall(ctx, c.Client, opTableDef, &tableDefRequest{Table: table}, nil, &rep); err != nil {
		return nil, err
	}
	return &rep.TableDef, nil
}

// ClientLoad COPYs a batch through a connection's front door (cl.load with
// Shard == -1: "ingest as if COPY'd at this node"). The batch crosses as a
// vft chunk behind the request, so float bits survive exactly.
func ClientLoad(ctx context.Context, c *server.Client, table string, b *colstore.Batch) error {
	chunk, err := encodeChunk(ctx, b)
	if err != nil {
		return err
	}
	return clientCall(ctx, c.Client, opLoad, &loadRequest{Table: table, Shard: -1}, [][]byte{chunk}, &loadReply{})
}

// clientCall makes one cl.* call over c, a connection of its own: req's
// payload (none when nil) and the bodies go out, and the reply decodes into
// rep.
func clientCall(ctx context.Context, c *wire.Client, op string, req payload, bodies [][]byte, rep payload) error {
	var ext []byte
	if req != nil {
		ext = req.appendTo(nil)
	}
	ext, _, err := c.Call(ctx, op, ext, bodies)
	if err != nil {
		return err
	}
	return decodePayload(op, "reply", ext, rep)
}
