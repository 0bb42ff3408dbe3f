package cluster

import (
	"context"
	"encoding/binary"
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
// are the small payloads, each encoded in the frame header's Ext field in the
// wire package's field codec (wire.AppendField, wire.Decoder): its fields in
// a fixed order, with no names or tags, so a payload has one encoding and a
// decoded one re-encodes to its own bytes. Every batch — rows, aggregate
// partials, plan text, COPY parts, a join's build sides — crosses as a frame
// body holding its vft chunk, raw, so float bits, NaN payloads included,
// survive the hop exactly. A body aliases the connection's read buffer:
// whoever receives one decodes (or copies) it before the connection's next
// frame. A read op's statement travels in the frame header (SQL, Args) and
// the schema of its answer too (Schema).

// Extension op names.
const (
	opSelect   = "cl.select"
	opAgg      = "cl.agg"
	opLoad     = "cl.load"
	opExec     = "cl.exec"
	opTableDef = "cl.tabledef"
	opHealth   = "cl.health"
)

// payload is an op's request or reply payload: appendTo writes its fields
// in order, decode reads them back.
type payload interface {
	appendTo(b []byte) []byte
	decode(d *wire.Decoder)
}

// decodePayload decodes ext, op's request or reply (kind) payload, into p: a
// malformed field or bytes after the last one is an error naming both.
func decodePayload(op, kind string, ext []byte, p payload) error {
	d := wire.NewDecoder(ext)
	p.decode(&d)
	if err := d.End(); err != nil {
		return fmt.Errorf("cluster: bad %s %s: %w", op, kind, err)
	}
	return nil
}

// appendInt appends an int as a zigzag varint, which Decoder.Int reads.
func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// appendInts appends a list of ints: its count, then each one.
func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendInt(b, v)
	}
	return b
}

// decodeInts is appendInts reversed; nil when the list is empty.
func decodeInts(d *wire.Decoder) []int {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	return vs
}

// shardRequest asks a peer to run one read statement over a snapshot view
// restricted to the listed shards, all of which it must own: cl.select runs
// a SELECT to its finished rows or an EXPLAIN to its plan lines, cl.agg an
// aggregate SELECT to its partial batch (sqlexec.RunPartialAggregate).
//
// SQL and Args are the statement: the text a client sent and its arguments
// (none for a one-shot statement), or the router's read of a join's build
// side. On the wire they ride in the frame header's SQL and typed Args (rpc),
// never in the payload; the peer resolves the text through its plan cache and
// binds the arguments. The payload is shards | builds | build_limit.
type shardRequest struct {
	SQL    string
	Args   []any
	Shards []int
	// Builds are a join statement's broadcast build sides: the peer reads
	// each named JOIN's table from the shipped batch instead of its shards.
	Builds []buildTable
	// BuildLimit > 0 marks the fetch of a build side: the peer answers
	// verr.ErrJoinTooLarge instead of shipping a chunk over that many bytes.
	BuildLimit int
}

// buildTable is one broadcast build side: the rows of the table at JOIN
// position Join (0-based, so `t JOIN t u` can ship u without touching t) —
// the columns the statement needs, already filtered, all shards concatenated
// in shard order — as a vft chunk with the schema to decode it under. The
// chunk of Builds[i] is the request's body i; on the wire a build is join |
// schema.
type buildTable struct {
	Join   int
	Schema colstore.Schema
	chunk  []byte
}

func (req *shardRequest) appendTo(b []byte) []byte {
	b = appendInts(b, req.Shards)
	b = binary.AppendUvarint(b, uint64(len(req.Builds)))
	for _, bt := range req.Builds {
		b = wire.AppendSchema(appendInt(b, bt.Join), bt.Schema)
	}
	return appendInt(b, req.BuildLimit)
}

func (req *shardRequest) decode(d *wire.Decoder) {
	req.Shards = decodeInts(d)
	req.Builds = nil
	if n := d.Count(2); n > 0 {
		req.Builds = make([]buildTable, n)
		for i := range req.Builds {
			req.Builds[i] = buildTable{Join: d.Int(), Schema: d.Schema()}
		}
	}
	req.BuildLimit = d.Int()
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
	return rpc{op: op, idempotent: true, sql: req.SQL, args: req.Args, payload: req.appendTo(nil), bodies: req.bodies(), reply: reply, recv: recv}
}

// readShardRequest is rpc reversed, on the receiving side: the shard request
// wreq carries, its statement from the frame header and its build tables'
// chunks from bodies.
func readShardRequest(wreq *wire.Request, bodies [][]byte) (shardRequest, error) {
	var req shardRequest
	if err := decodePayload(wreq.Op, "request", wreq.Ext, &req); err != nil {
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

// shardReply is the answer to every shardRequest: epoch. The reply's one
// body is a batch as a vft chunk, under the schema in the response header.
type shardReply struct {
	Epoch uint64
}

func (r *shardReply) catalogEpoch() uint64 { return r.Epoch }

func (r *shardReply) appendTo(b []byte) []byte { return binary.AppendUvarint(b, r.Epoch) }
func (r *shardReply) decode(d *wire.Decoder)   { r.Epoch = d.Uvarint() }

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
// passthrough path). The payload is table | shard | hash_col.
type loadRequest struct {
	Table string
	Shard int
	// HashCol is hashCol of the definition a router split the batch under;
	// unused with Shard == -1.
	HashCol int
}

func (r *loadRequest) appendTo(b []byte) []byte {
	return appendInt(appendInt(wire.AppendField(b, r.Table), r.Shard), r.HashCol)
}

func (r *loadRequest) decode(d *wire.Decoder) {
	r.Table, r.Shard, r.HashCol = d.Str(), d.Int(), d.Int()
}

// hashCol is what a table's row placement turns on: the index of the column
// it is segmented by hash of, or -1 for ROUND ROBIN.
func hashCol(def *catalog.TableDef) int {
	if def.Seg.Kind != catalog.SegHash {
		return -1
	}
	return def.Schema.ColIndex(def.Seg.Column)
}

// loadReply reports the rows applied — or Refused, with nothing applied: a
// shard write's HashCol is not the table's, so its rows may sit on the wrong
// shard, or a front-door COPY's chunk does not decode under the table's
// definition. Epoch is the replying node's catalog epoch. The payload is
// rows | refused | epoch.
type loadReply struct {
	Rows    int
	Refused bool
	Epoch   uint64
}

func (r *loadReply) catalogEpoch() uint64 { return r.Epoch }

func (r *loadReply) appendTo(b []byte) []byte {
	return binary.AppendUvarint(wire.AppendBool(appendInt(b, r.Rows), r.Refused), r.Epoch)
}

func (r *loadReply) decode(d *wire.Decoder) {
	r.Rows, r.Refused, r.Epoch = d.Int(), d.Bool(), d.Uvarint()
}

// execRequest runs a broadcast statement (DDL) on the peer: sql.
type execRequest struct {
	SQL string
}

func (r *execRequest) appendTo(b []byte) []byte { return wire.AppendField(b, r.SQL) }
func (r *execRequest) decode(d *wire.Decoder)   { r.SQL = d.Str() }

// execReply is the peer's catalog epoch after the statement applied.
type execReply struct {
	Epoch uint64
}

func (r *execReply) catalogEpoch() uint64 { return r.Epoch }

func (r *execReply) appendTo(b []byte) []byte { return binary.AppendUvarint(b, r.Epoch) }
func (r *execReply) decode(d *wire.Decoder)   { r.Epoch = d.Uvarint() }

// tableDefRequest asks for a table's definition: table.
type tableDefRequest struct {
	Table string
}

func (r *tableDefRequest) appendTo(b []byte) []byte { return wire.AppendField(b, r.Table) }
func (r *tableDefRequest) decode(d *wire.Decoder)   { r.Table = d.Str() }

// tableDefReply is a table's definition and the epoch it was read at: name |
// schema | segmentation kind byte | segmentation column | epoch.
type tableDefReply struct {
	catalog.TableDef
	Epoch uint64
}

func (r *tableDefReply) catalogEpoch() uint64 { return r.Epoch }

func (r *tableDefReply) appendTo(b []byte) []byte {
	b = wire.AppendSchema(wire.AppendField(b, r.Name), r.Schema)
	b = wire.AppendField(append(b, byte(r.Seg.Kind)), r.Seg.Column)
	return binary.AppendUvarint(b, r.Epoch)
}

func (r *tableDefReply) decode(d *wire.Decoder) {
	r.Name, r.Schema = d.Str(), d.Schema()
	r.Seg = catalog.Segmentation{Kind: catalog.SegKind(d.Byte()), Column: d.Str()}
	r.Epoch = d.Uvarint()
}

// healthReply is a peer's self-report for the router's health surface. Peers
// carries the full cluster address list so a client dialed at one node can
// discover the rest (DiscoverHealth). The payload is node | shards | peers |
// epoch | inflight | queued | saturated; cl.health's request has none.
type healthReply struct {
	Node      int
	Shards    []int
	Peers     []string
	Epoch     uint64
	Inflight  int
	Queued    int
	Saturated bool
}

func (r *healthReply) appendTo(b []byte) []byte {
	b = appendInts(appendInt(b, r.Node), r.Shards)
	b = binary.AppendUvarint(b, uint64(len(r.Peers)))
	for _, p := range r.Peers {
		b = wire.AppendField(b, p)
	}
	b = binary.AppendUvarint(b, r.Epoch)
	return wire.AppendBool(appendInt(appendInt(b, r.Inflight), r.Queued), r.Saturated)
}

func (r *healthReply) decode(d *wire.Decoder) {
	r.Node, r.Shards = d.Int(), decodeInts(d)
	r.Peers = nil
	if n := d.Count(1); n > 0 {
		r.Peers = make([]string, n)
		for i := range r.Peers {
			r.Peers[i] = d.Str()
		}
	}
	r.Epoch, r.Inflight, r.Queued, r.Saturated = d.Uvarint(), d.Int(), d.Int(), d.Bool()
}
