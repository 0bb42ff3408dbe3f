package cluster

import (
	"context"
	"errors"
	"fmt"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/server"
	"verticadr/internal/wire"
)

// Client-side wrappers over the cl.* ops, for the unified verticadr.Client:
// they work identically against a plain vdr-serve (the Peer loads through
// the local segmentation) and a clustered one (the node routes the batch to
// its owning shards cluster-wide).

// ClientTableDef fetches a table's definition over an open connection, and
// the catalog epoch of the node that read it.
func ClientTableDef(ctx context.Context, c *server.Client, table string) (*catalog.TableDef, uint64, error) {
	var rep tableDefReply
	if err := clientCall(ctx, c.Client, opTableDef, &tableDefRequest{Table: table}, nil, &rep); err != nil {
		return nil, 0, err
	}
	return &rep.TableDef, rep.Epoch, nil
}

// ErrDefinitionChanged is a front-door COPY refused with nothing applied:
// its batch does not decode under the table's current definition, which
// changed after the caller read it.
var ErrDefinitionChanged = errors.New("cluster: table definition changed: nothing loaded")

// ClientLoad COPYs a batch through a connection's front door (ClientCopy).
func ClientLoad(ctx context.Context, c *server.Client, table string, b *colstore.Batch) error {
	_, err := ClientCopy(ctx, c, table, b)
	return err
}

// ClientCopy COPYs a batch through a connection's front door (cl.load with
// Shard == -1: "ingest as if COPY'd at this node") and returns the catalog
// epoch the node's reply carries. The batch crosses as a vft chunk behind
// the request, so float bits survive exactly. A batch the node cannot
// decode under the table's definition fails with ErrDefinitionChanged.
func ClientCopy(ctx context.Context, c *server.Client, table string, b *colstore.Batch) (uint64, error) {
	chunk, err := encodeChunk(ctx, b)
	if err != nil {
		return 0, err
	}
	var rep loadReply
	if err := clientCall(ctx, c.Client, opLoad, &loadRequest{Table: table, Shard: -1}, [][]byte{chunk}, &rep); err != nil {
		return 0, err
	}
	if rep.Refused {
		return rep.Epoch, fmt.Errorf("%w (%q)", ErrDefinitionChanged, table)
	}
	return rep.Epoch, nil
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
