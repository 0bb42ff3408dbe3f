package cluster

import (
	"encoding/json"
	"fmt"

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
}

// shardReply is the answer to every shardRequest: one batch as a vft chunk,
// with the schema to decode it under.
type shardReply struct {
	Schema colstore.Schema `json:"schema"`
	Chunk  []byte          `json:"chunk"`
}

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
	Chunk []byte `json:"chunk"`
}

type loadReply struct {
	Rows int `json:"rows"`
}

// execRequest runs a broadcast statement (DDL) on the peer.
type execRequest struct {
	SQL string `json:"sql"`
}

type execReply struct{}

type tableDefRequest struct {
	Table string `json:"table"`
}

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
