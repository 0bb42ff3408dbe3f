// Package vft implements Vertica Fast Transfer (§3 of the paper): the
// Distributed R master issues ONE SQL query invoking the
// ExportToDistributedR transform function; Vertica then spawns parallel UDF
// instances that read node-local table segments and stream encoded column
// chunks directly to Distributed R workers. Two distribution policies are
// supported (§3.2): locality-preserving (node i → worker i, partition sizes
// mirror the possibly-skewed segmentation) and uniform (round-robin chunks,
// even partitions). The paper stages received chunks as in-memory byte
// files on the workers (/dev/shm) and converts them to data-frame partitions
// once the transfer completes (§3.3). Here the hub decodes each message at
// arrival into a batch of its own, and those batches, put in order, are the
// partitions: the conversion after the export is a sort.
package vft

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
)

// Cross-transfer totals in the process-wide telemetry registry. Per-session
// numbers live as standalone counters inside each session (sessions are
// transient; one labeled series per session would leak) and are mirrored
// here as they accumulate.
var (
	mTransfers = func(policy string) *telemetry.Counter {
		return telemetry.Default().Counter("vft_transfers_total", telemetry.L("policy", policy))
	}
	mRows  = telemetry.Default().Counter("vft_rows_total")
	mBytes = telemetry.Default().Counter("vft_bytes_total")
	// Both locality label variants resolved once: Send is per-chunk hot
	// path and registry lookups format the series key.
	mChunksLocal  = telemetry.Default().Counter("vft_chunks_total", telemetry.L("locality", "local"))
	mChunksRemote = telemetry.Default().Counter("vft_chunks_total", telemetry.L("locality", "remote"))
	mDBNanos      = telemetry.Default().Counter("vft_db_nanos_total")
	mNetNanos     = telemetry.Default().Counter("vft_net_nanos_total")
	mConvNanos    = telemetry.Default().Counter("vft_conv_nanos_total")
	// Recovery activity: chunks resent after a failed send, duplicates the
	// hub absorbed thanks to (part, seq) dedup, and sessions torn down
	// without finalizing (explicit aborts, failed exports, idle reaping).
	mRetransmits = telemetry.Default().Counter("vft_retransmits_total")
	mDupChunks   = telemetry.Default().Counter("vft_dup_chunks_total")
	mAborted     = telemetry.Default().Counter("vft_sessions_aborted_total")
	// Chunks the export instances built, by how: a sealed block row's stored
	// blocks copied as they are, or a decoded batch encoded anew.
	mBlocksStored  = telemetry.Default().Counter("vft_blocks_total", telemetry.L("form", "stored"))
	mBlocksEncoded = telemetry.Default().Counter("vft_blocks_total", telemetry.L("form", "encoded"))
)

// Transfer policies.
const (
	// PolicyLocality preserves segment locality: one partition per database
	// node, delivered to the same-numbered worker (Fig. 5).
	PolicyLocality = "locality"
	// PolicyUniform sprinkles chunks round-robin across workers for even
	// partition sizes regardless of segmentation skew (Fig. 6).
	PolicyUniform = "uniform"
)

// ServiceName is the UDF service key under which the Hub is registered.
const ServiceName = "vft"

// FuncName is the SQL name of the export transform (Fig. 4).
const FuncName = "ExportToDistributedR"

// Stats reports a transfer's measurements, assembled as a view over the
// session's telemetry counters when the transfer finalizes. DBSide covers
// reading, encoding and sending inside database UDF instances; Network is
// time spent pulling chunk bytes off sockets (zero on the in-process path);
// RSide covers conversion to R objects on the workers — the hub's decode of
// each message at arrival, which is the partition's storage, plus finalize
// putting each partition's messages in order — the phase bars of Fig. 6 /
// Fig. 14.
type Stats struct {
	Rows        int
	Bytes       int
	Chunks      int
	ChunksLocal int // chunks whose source node == receiving worker
	DBSide      time.Duration
	Network     time.Duration
	RSide       time.Duration
	Total       time.Duration // wall (or virtual) time of the whole Load
	PartSizes   []int
	Policy      string
}

// String renders the paper's Fig. 6-style phase breakdown.
func (st *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vft transfer (%s policy): %d rows, %d chunks (%d local), %.2f MB\n",
		st.Policy, st.Rows, st.Chunks, st.ChunksLocal, float64(st.Bytes)/(1<<20))
	net := st.Network.String()
	if st.Network == 0 {
		net = "0s (in-process)"
	}
	fmt.Fprintf(&sb, "  phase breakdown (cf. Fig. 6):\n")
	fmt.Fprintf(&sb, "    DB-side (read+encode+send): %v\n", st.DBSide)
	fmt.Fprintf(&sb, "    network (socket receive)  : %s\n", net)
	fmt.Fprintf(&sb, "    conversion (R-side)       : %v\n", st.RSide)
	fmt.Fprintf(&sb, "  partition sizes: %v\n", st.PartSizes)
	fmt.Fprintf(&sb, "  total: %v", st.Total)
	return sb.String()
}

// session is one in-flight transfer: staged decoded chunks per target
// partition. Chunks are decoded eagerly at arrival (outside the staging
// lock), so worker-side conversion overlaps the database-side scan+encode of
// later chunks instead of serializing behind the whole transfer.
// Measurements are standalone telemetry counters so concurrent UDF instances
// update them without holding the staging lock.
type session struct {
	frame  *darray.DFrame
	schema colstore.Schema
	policy string
	// sink is where this transfer's export instances push chunks: the hub
	// itself, or the sender of the TCPService LoadTCPContext was given.
	sink ChunkSink

	mu     sync.Mutex
	staged map[int][]chunkMsg
	// seen dedups staged chunks by (part, seq) so retransmission after a
	// lost ack is idempotent — a resent chunk is acknowledged but not
	// staged twice.
	seen map[chunkKey]struct{}

	// lastTouch is the wall-clock nanos of the last send/open, read by the
	// idle-session reaper.
	lastTouch atomic.Int64

	rows, bytes         *telemetry.Counter
	chunks, localChunks *telemetry.Counter
	dbTime, netTime     *telemetry.Counter
	convTime            *telemetry.Counter
}

func (s *session) touch() { s.lastTouch.Store(time.Now().UnixNano()) }

// Hub is the Distributed R side of VFT: it owns worker "listeners" (staging
// areas) and finalizes received data into distributed data frames. It is
// registered as a UDF service in the database so ExportToDistributedR
// instances can reach it.
type Hub struct {
	mu       sync.Mutex
	sessions map[string]*session
	next     int
}

// NewHub creates an empty hub.
func NewHub() *Hub { return &Hub{sessions: make(map[string]*session)} }

// open registers a new transfer session and returns its id.
func (h *Hub) open(frame *darray.DFrame, schema colstore.Schema, policy string, sink ChunkSink) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next++
	id := fmt.Sprintf("vft-%d", h.next)
	s := &session{
		frame:       frame,
		schema:      schema,
		policy:      policy,
		sink:        sink,
		staged:      make(map[int][]chunkMsg),
		seen:        make(map[chunkKey]struct{}),
		rows:        telemetry.NewCounter(),
		bytes:       telemetry.NewCounter(),
		chunks:      telemetry.NewCounter(),
		localChunks: telemetry.NewCounter(),
		dbTime:      telemetry.NewCounter(),
		netTime:     telemetry.NewCounter(),
		convTime:    telemetry.NewCounter(),
	}
	s.touch()
	h.sessions[id] = s
	return id
}

// Sessions reports the number of in-flight transfers (leak checks).
func (h *Hub) Sessions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// Abort drops an in-flight session and its staged chunks — the cleanup path
// for errored or abandoned transfers, which previously kept their staging
// memory forever. Unknown ids are a no-op; the return reports whether a
// session was actually dropped.
func (h *Hub) Abort(id string) bool {
	h.mu.Lock()
	_, ok := h.sessions[id]
	delete(h.sessions, id)
	h.mu.Unlock()
	if ok {
		mAborted.Inc()
	}
	return ok
}

// ReapIdle aborts sessions that have not seen a send for longer than
// maxIdle, returning their ids sorted. Called periodically by StartReaper so
// a sender that died mid-transfer cannot pin staged chunks indefinitely.
func (h *Hub) ReapIdle(maxIdle time.Duration) []string {
	now := time.Now().UnixNano()
	var ids []string
	h.mu.Lock()
	for id, s := range h.sessions {
		if now-s.lastTouch.Load() > int64(maxIdle) {
			ids = append(ids, id)
			delete(h.sessions, id)
		}
	}
	h.mu.Unlock()
	for range ids {
		mAborted.Inc()
	}
	sort.Strings(ids)
	return ids
}

// StartReaper scans for idle sessions every interval until the returned stop
// function is called (idempotent).
func (h *Hub) StartReaper(interval, maxIdle time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				h.ReapIdle(maxIdle)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

func (h *Hub) get(id string) (*session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[id]
	if !ok {
		return nil, fmt.Errorf("vft: unknown session %q", id)
	}
	return s, nil
}

// chunkMsg is one staged (already decoded) chunk plus its deterministic
// order key (composed from source node, UDF instance and per-instance
// sequence number) so that partition assembly does not depend on goroutine
// or network interleaving: under the locality policy a partition reassembles
// in exact segment order, making repeated loads of the same table
// row-aligned. The batch is what the message decoded into, and becomes part
// of the partition as it is.
type chunkMsg struct {
	seq   uint64
	batch *colstore.Batch
}

// chunkKey identifies a staged chunk for retransmission dedup.
type chunkKey struct {
	part int
	seq  uint64
}

// OrderKey composes a chunk's deterministic order key.
func OrderKey(node, instance, localSeq int) uint64 {
	return uint64(node)<<44 | uint64(instance)<<28 | uint64(localSeq)
}

// Send delivers one message — a run of one or more chunks holding rows rows
// in all — to a target partition's staging area. It is called by
// database-side UDF instances ("Vertica processes" connecting to worker
// listeners). seq is the message's OrderKey.
//
// Send is idempotent: a message already staged under the same (part, seq) is
// acknowledged without being staged again, so senders may retransmit after
// a failed or lost acknowledgement without corrupting the partition.
//
// msg is only read for the duration of the call: its chunks are decoded into
// one new batch, the partition's storage from then on, before Send returns,
// so the sender may recycle or overwrite the buffer immediately afterwards. A
// message that is corrupt, ends inside a chunk, or decodes to another row
// count than the sender declared is rejected here, at arrival, with nothing
// staged or counted, rather than poisoning the session at finalize time.
func (h *Hub) Send(sessionID string, part int, seq uint64, msg []byte, rows int, dbTime time.Duration) error {
	s, err := h.get(sessionID)
	if err != nil {
		return err
	}
	s.touch()
	if part < 0 || part >= s.frame.NPartitions() {
		return fmt.Errorf("vft: partition %d out of range", part)
	}
	key := chunkKey{part: part, seq: seq}
	s.mu.Lock()
	if _, dup := s.seen[key]; dup {
		s.mu.Unlock()
		mDupChunks.Inc()
		return nil
	}
	s.mu.Unlock()
	// Decode outside the staging lock: conversion of this chunk overlaps
	// both concurrent sends and the database-side scan+encode of later
	// chunks — the R-side leg of the transfer pipeline runs during the
	// transfer, not after it.
	start := time.Now()
	// A fresh batch is sized for the rows the sender declares, as far as the
	// bytes it actually delivered vouch for them: at most a word a byte.
	batch := colstore.NewBatchCap(s.schema, max(0, min(rows, len(msg)/8)))
	if err := decodeRun(batch, msg, rows); err != nil {
		return err
	}
	conv := time.Since(start)
	s.mu.Lock()
	if _, dup := s.seen[key]; dup {
		// A retransmission raced our decode; keep the first copy.
		s.mu.Unlock()
		mDupChunks.Inc()
		return nil
	}
	s.seen[key] = struct{}{}
	s.staged[part] = append(s.staged[part], chunkMsg{seq: seq, batch: batch})
	s.mu.Unlock()
	s.convTime.AddDuration(conv)
	mConvNanos.AddDuration(conv)
	s.rows.Add(int64(rows))
	s.bytes.Add(int64(len(msg)))
	s.chunks.Inc()
	s.dbTime.AddDuration(dbTime)
	// A chunk is "local" when its source node (recoverable from the order
	// key) matches the worker owning the target partition — always true
	// under the locality policy, 1/workers of the time under uniform.
	if int(seq>>44) == s.frame.WorkerOf(part) {
		s.localChunks.Inc()
		mChunksLocal.Inc()
	} else {
		mChunksRemote.Inc()
	}
	mRows.Add(int64(rows))
	mBytes.Add(int64(len(msg)))
	mDBNanos.AddDuration(dbTime)
	// The injection point sits after staging: an injected failure models a
	// lost acknowledgement, so the sender retransmits a chunk the hub
	// already holds and the dedup above must absorb it.
	if err := faults.Check(faults.SiteVFTSend); err != nil {
		return err
	}
	return nil
}

// addNet records time spent pulling a chunk's bytes off a socket; called by
// the TCP service per received frame. The in-process path has no network leg
// and never calls it.
func (h *Hub) addNet(sessionID string, d time.Duration) {
	mNetNanos.AddDuration(d)
	if s, err := h.get(sessionID); err == nil {
		s.netTime.AddDuration(d)
	}
}

// finalize fills each partition of the distributed frame with its staged
// batches (§3.3 step two: "in-memory files are converted into R objects and
// assembled into partitions"). Decoding happened at arrival, overlapped with
// the export, into batches that are the partition's storage; what remains
// here is putting them in order, on the owning workers in parallel.
func (h *Hub) finalize(ctx context.Context, id string, c *dr.Cluster) (st *Stats, err error) {
	s, err := h.get(id)
	if err != nil {
		return nil, err
	}
	// The session is consumed whatever happens: the success path deletes it
	// below, and every error path must release its staging memory too.
	defer func() {
		if err != nil {
			h.Abort(id)
		}
	}()
	s.mu.Lock()
	staged := s.staged
	s.staged = make(map[int][]chunkMsg)
	s.mu.Unlock()

	nparts := s.frame.NPartitions()
	var rMu sync.Mutex
	var rTime time.Duration
	tasks := map[int][]dr.TaskSpec{}
	for part := 0; part < nparts; part++ {
		part := part
		chunks := staged[part]
		w := s.frame.WorkerOf(part)
		tasks[w] = append(tasks[w], dr.TaskSpec{
			Run: func(_ *dr.Worker) error {
				start := time.Now()
				// Deterministic assembly: order by (node, instance, sequence).
				sort.Slice(chunks, func(a, b int) bool { return chunks[a].seq < chunks[b].seq })
				batches := make([]*colstore.Batch, 0, len(chunks)+1)
				for _, c := range chunks {
					batches = append(batches, c.batch)
				}
				if len(batches) == 0 { // an empty partition still has the schema
					batches = append(batches, colstore.NewBatch(s.schema))
				}
				if err := s.frame.Fill(part, batches...); err != nil {
					return err
				}
				rMu.Lock()
				rTime += time.Since(start)
				rMu.Unlock()
				return nil
			},
			// Failover: the staged batches live on the master, so recovering
			// a dead worker's partition only needs re-pointing it at the
			// survivor before the task re-runs there (the paper's partition
			// re-fetch on task re-execution).
			Rebuild: func(nw *dr.Worker) error {
				return s.frame.SetWorker(part, nw.ID())
			},
		})
	}
	if err := c.RunAllSpecsCtx(ctx, tasks, dr.RunOpts{Retries: c.TaskRetries()}); err != nil {
		return nil, err
	}
	sizes := make([]int, nparts)
	for i := range sizes {
		r, _, err := s.frame.PartitionSize(i)
		if err != nil {
			return nil, err
		}
		sizes[i] = r
	}
	s.convTime.AddDuration(rTime)
	mConvNanos.AddDuration(rTime)
	st = &Stats{
		Rows:        int(s.rows.Value()),
		Bytes:       int(s.bytes.Value()),
		Chunks:      int(s.chunks.Value()),
		ChunksLocal: int(s.localChunks.Value()),
		DBSide:      s.dbTime.Duration(),
		Network:     s.netTime.Duration(),
		RSide:       s.convTime.Duration(),
		PartSizes:   sizes,
		Policy:      s.policy,
	}
	h.mu.Lock()
	delete(h.sessions, id)
	h.mu.Unlock()
	return st, nil
}

// EncodeChunk serializes a batch into one wire message: uvarint column
// count, then per column a length-prefixed encoded block. This is the
// binary columnar fast path (contrast with ODBC's per-row text framing).
func EncodeChunk(b *colstore.Batch) ([]byte, error) {
	return EncodeChunkInto(nil, b)
}

// EncodeChunkInto appends the chunk encoding of b to dst and returns the
// extended slice. With a dst of sufficient capacity (e.g. from the vft
// buffer pool) the steady-state encode allocates nothing: the per-block
// scratch is pooled too.
func EncodeChunkInto(dst []byte, b *colstore.Batch) ([]byte, error) {
	dst, scratch, err := colstore.AppendChunk(dst, getBuf(), b)
	putBuf(scratch)
	return dst, err
}

// DecodeChunk reverses EncodeChunk against the expected schema. The schema
// may have come off the wire beside the chunk: a column of no storable type
// is an error like any other disagreement.
func DecodeChunk(msg []byte, schema colstore.Schema) (*colstore.Batch, error) {
	for _, c := range schema {
		if c.Type < colstore.TypeInt64 || c.Type > colstore.TypeBool {
			return nil, fmt.Errorf("vft: column %q has %v", c.Name, c.Type)
		}
	}
	out := colstore.NewBatch(schema)
	if err := DecodeChunkInto(out, msg); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeRun decodes a message — a run of one or more chunks, nothing else —
// into the empty batch dst and checks it held the rows its sender declared.
// It stops at the first chunk that takes the run past that count, so what a
// hostile run of small, highly compressed chunks can make the hub allocate is
// bounded by one chunk beyond what its sender owned up to.
func decodeRun(dst *colstore.Batch, msg []byte, rows int) error {
	for {
		rest, err := colstore.DecodeChunkInto(dst, msg)
		if err != nil {
			return err
		}
		if got := dst.Len(); got > rows || (len(rest) == 0 && got != rows) {
			return fmt.Errorf("vft: message declares %d rows, its chunks hold %d", rows, got)
		}
		if len(rest) == 0 {
			return nil
		}
		msg = rest
	}
}

// DecodeChunkInto decodes a chunk into dst, appending to dst's columns
// (callers reusing a pooled batch Reset it first). dst's schema is the
// expected schema; a chunk that disagrees with it, or is corrupt, returns an
// error, never a panic (colstore.DecodeChunkInto).
func DecodeChunkInto(dst *colstore.Batch, msg []byte) error {
	_, err := colstore.DecodeChunkInto(dst, msg)
	return err
}
