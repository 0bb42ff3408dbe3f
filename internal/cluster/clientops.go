package cluster

import (
	"context"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/server"
)

// Client-side wrappers over the cl.* ops, for the unified verticadr.Client:
// they work identically against a plain vdr-serve (the Peer loads through
// the local segmentation) and a clustered one (the node routes the batch to
// its owning shards cluster-wide).

// ClientTableDef fetches a table's definition over an open connection.
func ClientTableDef(ctx context.Context, c *server.Client, table string) (*catalog.TableDef, error) {
	var def catalog.TableDef
	if _, err := c.Call(ctx, opTableDef, tableDefRequest{Table: table}, nil, &def); err != nil {
		return nil, err
	}
	return &def, nil
}

// ClientLoad COPYs a batch through a connection's front door (cl.load with
// Shard == -1: "ingest as if COPY'd at this node"). The batch crosses as a
// vft chunk behind the request, so float bits survive exactly.
func ClientLoad(ctx context.Context, c *server.Client, table string, b *colstore.Batch) error {
	chunk, err := encodeChunk(ctx, b)
	if err != nil {
		return err
	}
	var rep loadReply
	_, err = c.Call(ctx, opLoad, loadRequest{Table: table, Shard: -1}, [][]byte{chunk}, &rep)
	return err
}
