package vft

import (
	"encoding/binary"
	"fmt"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/telemetry"
	"verticadr/internal/udf"
)

// sendRetries caps how many times an export instance offers one message to
// the sink; the receiver's (part, seq) dedup makes every retransmission
// idempotent.
const sendRetries = 3

// exportUDF is the ExportToDistributedR transform function (Fig. 4). One
// instance runs per node-local block range under OVER (PARTITION BEST); each
// instance appends what it reads to a message — a run of chunks — and pushes
// the message to the target worker's staging area through the Hub whenever it
// holds exactly psize rows (the partition-size hint of §3.1), and once more
// at the end of its input.
//
// A block row the reader hands over as stored (udf.StoredReader: bare column
// arguments, nothing filtered, no more rows than the message has room for)
// becomes a chunk without a copy: its column count and block lengths go into
// the instance's message buffer, and the blocks themselves are parts of the
// message of their own (message). Everything else arrives as a batch and is
// encoded by colstore.AppendChunk into the buffer, cut with a Slice view
// where it crosses a message boundary. Message boundaries never depend on
// which form the rows took.
//
// Each instance is one loop: it reads, appends and sends each full message
// itself. The concurrency of §3.1 comes from the many instances running
// side by side, one per node-local block range.
//
// Ownership contract: an instance owns its message buffer and reuses it from
// flush to flush. ChunkSink.Send implementations must not retain msg past
// the call (the hub decodes eagerly, the TCP sender has written it out), so
// the buffer is the instance's again the moment Send returns, and a
// retransmission resends the same parts. Stored blocks belong to their
// segment: immutable once sealed, they are only ever read.
type exportUDF struct{}

// OutputSchema: one summary row per instance (node, rows, bytes).
func (exportUDF) OutputSchema(in colstore.Schema, params udf.Params) (colstore.Schema, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("vft: ExportToDistributedR needs at least one column argument")
	}
	if _, err := params.String("session"); err != nil {
		return nil, err
	}
	policy := params.StringOr("policy", PolicyLocality)
	if policy != PolicyLocality && policy != PolicyUniform {
		return nil, fmt.Errorf("vft: unknown policy %q", policy)
	}
	if _, err := params.Int("workers"); err != nil {
		return nil, err
	}
	return colstore.Schema{
		{Name: "node", Type: colstore.TypeInt64},
		{Name: "rows", Type: colstore.TypeInt64},
		{Name: "bytes", Type: colstore.TypeInt64},
	}, nil
}

func (exportUDF) ProcessPartition(ctx *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	svc, err := ctx.Service(ServiceName)
	if err != nil {
		return err
	}
	hub, ok := svc.(*Hub)
	if !ok {
		return fmt.Errorf("vft: service %q is %T, not the transfer hub", ServiceName, svc)
	}
	sessionID, err := ctx.Params.String("session")
	if err != nil {
		return err
	}
	sess, err := hub.get(sessionID)
	if err != nil {
		return err
	}
	sink := sess.sink
	policy := ctx.Params.StringOr("policy", PolicyLocality)
	if policy != PolicyLocality && policy != PolicyUniform {
		return fmt.Errorf("vft: unknown policy %q", policy)
	}
	workers := int(ctx.Params.IntOr("workers", 1))
	psize := int(ctx.Params.IntOr("psize", 4096))
	if psize <= 0 {
		psize = 4096
	}

	stored, _ := in.(udf.StoredReader)
	var (
		msg        message
		dbTime     time.Duration // spent appending to msg
		localSeq   int
		nStored    int64 // chunks made of stored blocks
		nEncoded   int64 // chunks encoded from batches
		totalRows  int64 // rows sent
		totalBytes int64 // message bytes sent
	)
	defer func() {
		mBlocksStored.Add(nStored)
		mBlocksEncoded.Add(nEncoded)
	}()
	// Round-robin cursor for the uniform policy; offset by node and instance
	// so concurrent instances do not all start at worker 0.
	rr := ctx.NodeID + ctx.Instance

	// flush sends the message, retransmitting on failure — the one retry of
	// either path: the hub dedups by (part, seq), so resending after a lost
	// acknowledgement is safe. The sink has decoded or written out the
	// message when Send returns, so the buffer is free for the next one.
	flush := func() (err error) {
		// Node i's data goes to partition i (= worker i) under the locality
		// policy, Fig. 5.
		target := ctx.NodeID
		if policy == PolicyUniform {
			target = rr % workers
			rr++
		}
		seq := OrderKey(ctx.NodeID, ctx.Instance, localSeq)
		msg.cut()
		parts := msg.parts
		for attempt := 0; attempt < sendRetries; attempt++ {
			if attempt > 0 {
				mRetransmits.Inc()
			}
			if err = sink.Send(sessionID, target, seq, parts, msg.rows, dbTime); err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
		totalRows += int64(msg.rows)
		totalBytes += int64(msgLen(parts))
		localSeq++
		msg.reset()
		dbTime = 0
		return nil
	}
	// add appends one chunk of n rows to the message — a block row's stored
	// blocks by reference, or else a batch encoded — sending it once it holds
	// psize rows.
	add := func(n int, blocks [][]byte, b *colstore.Batch) (err error) {
		start := time.Now()
		if msg.rows == 0 { // a message begins, in the instance's buffer if it has one
			if cap(msg.buf) > 0 {
				mPoolHit.Inc()
			} else {
				mPoolMiss.Inc()
			}
		}
		if blocks != nil {
			nStored++
			msg.addStored(blocks)
		} else {
			nEncoded++
			if msg.buf, err = colstore.AppendChunk(msg.buf, b); err != nil {
				return err
			}
		}
		msg.rows += n
		dbTime += time.Since(start)
		if msg.rows == psize {
			return flush()
		}
		return nil
	}

	for {
		var (
			blocks [][]byte
			n      int
			b      *colstore.Batch
		)
		if stored != nil {
			blocks, n, b, err = stored.NextStored(psize - msg.rows)
		} else {
			b, err = in.Next()
		}
		if err != nil {
			return err
		}
		if blocks == nil && b == nil {
			break
		}
		if blocks != nil {
			if err := add(n, blocks, nil); err != nil {
				return err
			}
			continue
		}
		// A batch is cut where it crosses a message boundary.
		for off := 0; off < b.Len(); {
			part, take := b, min(psize-msg.rows, b.Len()-off)
			if take < b.Len() {
				part = b.Slice(off, off+take)
			}
			if err := add(take, nil, part); err != nil {
				return err
			}
			off += take
		}
	}
	if msg.rows > 0 {
		if err := flush(); err != nil {
			return err
		}
	}

	summary := colstore.NewBatch(colstore.Schema{
		{Name: "node", Type: colstore.TypeInt64},
		{Name: "rows", Type: colstore.TypeInt64},
		{Name: "bytes", Type: colstore.TypeInt64},
	})
	if err := summary.AppendRow(int64(ctx.NodeID), totalRows, totalBytes); err != nil {
		return err
	}
	return out.Write(summary)
}

// message is an export instance's message being built, in parts whose
// bytes, back to back, are the message: slices of buf — chunk and block
// headers, and the chunks encoded from batches — and, between them, stored
// blocks, uncopied. buf and parts are reused from message to message; buf
// only grows past a part of it until the message is sent.
type message struct {
	buf   []byte
	parts [][]byte
	from  int // buf's bytes before from are in parts
	rows  int
}

// vft_pool_hit_total counts the messages whose instance reused its buffer,
// vft_pool_miss_total the ones that allocated it (an instance's first).
var (
	mPoolHit  = telemetry.Default().Counter("vft_pool_hit_total")
	mPoolMiss = telemetry.Default().Counter("vft_pool_miss_total")
)

// addStored appends the chunk whose columns are the given blocks, already
// encoded: the column count and each block's length in buf, each block a
// part of its own.
func (m *message) addStored(blocks [][]byte) {
	m.buf = binary.AppendUvarint(m.buf, uint64(len(blocks)))
	for _, blk := range blocks {
		m.buf = binary.AppendUvarint(m.buf, uint64(len(blk)))
		m.cut()
		m.parts = append(m.parts, blk)
	}
}

// cut makes buf's bytes since the last cut a part.
func (m *message) cut() {
	if m.from < len(m.buf) {
		m.parts = append(m.parts, m.buf[m.from:len(m.buf):len(m.buf)])
		m.from = len(m.buf)
	}
}

// reset empties the message for the next one, keeping buf and parts.
func (m *message) reset() {
	clear(m.parts)
	m.buf, m.parts, m.from, m.rows = m.buf[:0], m.parts[:0], 0, 0
}

// msgLen is the length of the message whose parts are msg.
func msgLen(msg [][]byte) int {
	n := 0
	for _, p := range msg {
		n += len(p)
	}
	return n
}

// Register installs the export UDF and the hub service into a database.
// The db argument is any registry owner (internal/vertica.DB satisfies it).
func Register(db interface {
	UDFs() *udf.Registry
	RegisterService(name string, svc any)
}, hub *Hub) error {
	db.RegisterService(ServiceName, hub)
	return db.UDFs().Register(FuncName, func() udf.Transform { return exportUDF{} })
}
