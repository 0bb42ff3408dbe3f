package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/telemetry"
	"verticadr/internal/vft"
	"verticadr/internal/wire"
)

// The peer protocol rides the serving protocol's extension hook: one request
// frame, one response frame, over the same connection and framing as
// ordinary queries, with errors carried as verr wire codes. The structs below
// are the small JSON payloads; every batch — rows, aggregate partials, plan
// text, COPY parts, a join's build sides — crosses as a frame body holding
// its vft chunk, raw, so float bits, NaN payloads included, survive the hop
// exactly and nothing is base64. A body aliases the connection's read buffer:
// whoever receives one decodes (or copies) it before the connection's next
// frame. A read op's statement travels in the frame header (SQL, Args) and
// the schema of its answer too (Schema), so neither passes through JSON.

// Extension op names.
const (
	opSelect   = "cl.select"
	opAgg      = "cl.agg"
	opLoad     = "cl.load"
	opExec     = "cl.exec"
	opTableDef = "cl.tabledef"
	opHealth   = "cl.health"
)

// shardRequest asks a peer to run one read statement over a snapshot view
// restricted to the listed shards, all of which it must own: cl.select runs
// a SELECT to its finished rows or an EXPLAIN to its plan lines, cl.agg an
// aggregate SELECT to its partial batch (sqlexec.RunPartialAggregate).
//
// SQL and Args are the statement: the text a client sent and its arguments
// (none for a one-shot statement), or the router's read of a join's build
// side. On the wire they ride in the frame header's SQL and typed Args (rpc),
// never in the payload; the peer resolves the text through its plan cache and
// binds the arguments.
type shardRequest struct {
	SQL    string `json:"sql,omitempty"`
	Args   []any  `json:"-"`
	Shards []int  `json:"shards"`
	// Builds are a join statement's broadcast build sides: the peer reads
	// each named JOIN's table from the shipped batch instead of its shards.
	Builds []buildTable `json:"builds,omitempty"`
	// BuildLimit > 0 marks the fetch of a build side: the peer answers
	// verr.ErrJoinTooLarge instead of shipping a chunk over that many bytes.
	BuildLimit int `json:"build_limit,omitempty"`
}

// buildTable is one broadcast build side: the rows of the table at JOIN
// position Join (0-based, so `t JOIN t u` can ship u without touching t) —
// the columns the statement needs, already filtered, all shards concatenated
// in shard order — as a vft chunk with the schema to decode it under. The
// chunk of Builds[i] is the request's body i.
type buildTable struct {
	Join   int             `json:"join"`
	Schema colstore.Schema `json:"schema"`
	chunk  []byte
}

// bodies are the request's frame bodies: its build tables' chunks, in order.
func (req *shardRequest) bodies() [][]byte {
	var out [][]byte
	for _, b := range req.Builds {
		out = append(out, b.chunk)
	}
	return out
}

// rpc is the read call that sends req under op: the statement in the frame
// header, the rest as the payload, the build tables' chunks as the bodies.
func (req shardRequest) rpc(op string, reply *shardReply, recv func(schema colstore.Schema, bodies [][]byte) error) rpc {
	sql := req.SQL
	req.SQL = ""
	return rpc{op: op, idempotent: true, sql: sql, args: req.Args, payload: req, bodies: req.bodies(), reply: reply, recv: recv}
}

// readShardRequest is rpc reversed, on the receiving side: the shard request
// wreq carries, its statement from the frame header and its build tables'
// chunks from bodies.
func readShardRequest(wreq *wire.Request, bodies [][]byte) (shardRequest, error) {
	var req shardRequest
	if err := decodeRequest(wreq.Op, wreq.Ext, &req); err != nil {
		return shardRequest{}, err
	}
	req.SQL, req.Args = wreq.SQL, wreq.Args
	if err := req.setBodies(wreq.Op, bodies); err != nil {
		return shardRequest{}, err
	}
	return req, nil
}

// setBodies is bodies reversed, on the receiving side.
func (req *shardRequest) setBodies(op string, bodies [][]byte) error {
	if err := wantBodies(op, bodies, len(req.Builds)); err != nil {
		return err
	}
	for i := range req.Builds {
		req.Builds[i].chunk = bodies[i]
	}
	return nil
}

// Every reply a router caches catalog state beside carries the peer's
// catalog epoch, read before the request ran: an epoch newer than the one
// the router cached under means DDL went through another node's router.
type epochReply interface{ catalogEpoch() uint64 }

// shardReply is the answer to every shardRequest. The reply's one body is a
// batch as a vft chunk, under the schema in the response header.
type shardReply struct {
	Epoch uint64 `json:"epoch"`
}

func (r *shardReply) catalogEpoch() uint64 { return r.Epoch }

// decodeRequest unmarshals an op's request payload.
func decodeRequest(op string, payload json.RawMessage, req any) error {
	if err := json.Unmarshal(payload, req); err != nil {
		return fmt.Errorf("cluster: bad %s request: %w", op, err)
	}
	return nil
}

// encodeChunk is vft.EncodeChunk, and decodeChunk vft.DecodeChunk, under a
// wire.encode / wire.decode span of the caller's trace: every batch the
// cluster puts on a socket or takes off one passes through one of them.
func encodeChunk(ctx context.Context, b *colstore.Batch) ([]byte, error) {
	span := telemetry.SpanFromContext(ctx).StartChild("wire.encode")
	chunk, err := vft.EncodeChunk(b)
	endWireSpan(span, b, len(chunk))
	return chunk, err
}

func decodeChunk(ctx context.Context, chunk []byte, schema colstore.Schema) (*colstore.Batch, error) {
	span := telemetry.SpanFromContext(ctx).StartChild("wire.decode")
	b, err := vft.DecodeChunk(chunk, schema)
	endWireSpan(span, b, len(chunk))
	return b, err
}

func endWireSpan(span *telemetry.Span, b *colstore.Batch, bytes int) {
	if span == nil {
		return
	}
	if b != nil {
		span.SetAttr("rows", strconv.Itoa(b.Len()))
	}
	span.SetAttr("bytes", strconv.Itoa(bytes))
	span.End()
}

// wantBodies checks that a frame brought the n bodies its payload speaks of.
func wantBodies(op string, bodies [][]byte, n int) error {
	if len(bodies) != n {
		return fmt.Errorf("cluster: bad %s frame: %d bodies, want %d", op, len(bodies), n)
	}
	return nil
}

// loadRequest appends a pre-split batch — the request's one body, a vft
// chunk under the table's schema — to one shard's segment (COPY). A Shard of
// -1 loads through the peer's own segmentation instead (the single-node
// passthrough path).
type loadRequest struct {
	Table string `json:"table"`
	Shard int    `json:"shard"`
	// HashCol is hashCol of the definition a router split the batch under;
	// unused with Shard == -1.
	HashCol int `json:"hash_col"`
}

// hashCol is what a table's row placement turns on: the index of the column
// it is segmented by hash of, or -1 for ROUND ROBIN.
func hashCol(def *catalog.TableDef) int {
	if def.Seg.Kind != catalog.SegHash {
		return -1
	}
	return def.Schema.ColIndex(def.Seg.Column)
}

// loadReply reports the rows applied — or Refused, with nothing applied: the
// request's HashCol is not the table's, so its rows may sit on the wrong
// shard.
type loadReply struct {
	Rows    int    `json:"rows"`
	Refused bool   `json:"refused,omitempty"`
	Epoch   uint64 `json:"epoch"`
}

func (r *loadReply) catalogEpoch() uint64 { return r.Epoch }

// execRequest runs a broadcast statement (DDL) on the peer.
type execRequest struct {
	SQL string `json:"sql"`
}

type execReply struct {
	Epoch uint64 `json:"epoch"` // after the statement applied
}

func (r *execReply) catalogEpoch() uint64 { return r.Epoch }

type tableDefRequest struct {
	Table string `json:"table"`
}

// tableDefReply is the definition's own JSON object plus the epoch, so a
// client that wants only the definition decodes it as a catalog.TableDef.
type tableDefReply struct {
	catalog.TableDef
	Epoch uint64 `json:"epoch"`
}

func (r *tableDefReply) catalogEpoch() uint64 { return r.Epoch }

// healthReply is a peer's self-report for the router's health surface. Peers
// carries the full cluster address list so a client dialed at one node can
// discover the rest (DiscoverHealth).
type healthReply struct {
	Node      int      `json:"node"`
	Shards    []int    `json:"shards"`
	Peers     []string `json:"peers,omitempty"`
	Epoch     uint64   `json:"epoch"`
	Inflight  int      `json:"inflight"`
	Queued    int      `json:"queued"`
	Saturated bool     `json:"saturated"`
}
