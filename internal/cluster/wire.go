package cluster

import (
	"encoding/json"
	"fmt"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
)

// The peer protocol rides the serving protocol's extension hook: one JSON
// request frame, one JSON response frame, over the same connection and
// framing (vft u32 frames) as ordinary queries, with errors carried as verr
// wire codes. Data crosses as vft chunk encodings ([]byte fields, base64
// inside the JSON envelope) — rows, aggregate partials and plan text alike —
// so float bits, including NaN payloads JSON numbers cannot carry, survive
// the hop exactly.

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
type shardRequest struct {
	SQL    string `json:"sql"`
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
// in shard order — as a vft chunk with the schema to decode it under.
type buildTable struct {
	Join   int             `json:"join"`
	Schema colstore.Schema `json:"schema"`
	Chunk  []byte          `json:"chunk"`
}

// Every reply a router caches catalog state beside carries the peer's
// catalog epoch, read before the request ran: an epoch newer than the one
// the router cached under means DDL went through another node's router.
type epochReply interface{ catalogEpoch() uint64 }

// shardReply is the answer to every shardRequest: one batch as a vft chunk,
// with the schema to decode it under.
type shardReply struct {
	Schema colstore.Schema `json:"schema"`
	Chunk  []byte          `json:"chunk"`
	Epoch  uint64          `json:"epoch"`
}

func (r *shardReply) catalogEpoch() uint64 { return r.Epoch }

// decodeRequest unmarshals an op's request payload.
func decodeRequest(op string, payload json.RawMessage, req any) error {
	if err := json.Unmarshal(payload, req); err != nil {
		return fmt.Errorf("cluster: bad %s request: %w", op, err)
	}
	return nil
}

// loadRequest appends a pre-split batch to one shard's segment (COPY). A
// Shard of -1 loads through the peer's own segmentation instead (the
// single-node passthrough path).
type loadRequest struct {
	Table string `json:"table"`
	Shard int    `json:"shard"`
	// HashCol is hashCol of the definition a router split the batch under;
	// unused with Shard == -1.
	HashCol int    `json:"hash_col"`
	Chunk   []byte `json:"chunk"`
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
