package vft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/udf"
)

// sendRetries caps how many times the sender offers one chunk to the sink;
// the receiver's (part, seq) dedup makes every retransmission idempotent.
const sendRetries = 3

// pipeDepth bounds the encoded-chunk channel between the scan+encode stage
// and the send stage of each export instance: double buffering, so one chunk
// is encoded while the previous one is on the wire, without letting a slow
// receiver pile up unbounded encoded chunks.
const pipeDepth = 2

// encodedChunk is one unit of work handed from the scan+encode stage to the
// send stage. msg is a pooled buffer owned by the chunk until the sender
// returns it.
type encodedChunk struct {
	target int
	seq    uint64
	rows   int
	msg    []byte
	dbTime time.Duration
}

// exportUDF is the ExportToDistributedR transform function (Fig. 4). One
// instance runs per node-local chunk under OVER (PARTITION BEST); each
// instance reads its rows, buffers them (psize rows per chunk — the
// partition-size hint of §3.1), encodes each buffer as a columnar chunk and
// pushes it to the target worker's staging area through the Hub.
//
// Each instance is a two-stage pipeline: the main goroutine scans and
// encodes into pooled buffers while a sender goroutine drains the bounded
// channel and pushes chunks to the sink, so DB-side encode genuinely
// overlaps the network/staging leg (the paper's concurrent read-and-send,
// §3.1). The staging batch is a single reused allocation; encode buffers
// return to the pool after their Send completes — Send implementations never
// retain msg, and all retransmission happens inside Send while the sender
// still owns the buffer, so a retransmit can never observe a recycled one.
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
	workers := int(ctx.Params.IntOr("workers", 1))
	bufRows := int(ctx.Params.IntOr("psize", 4096))
	if bufRows <= 0 {
		bufRows = 4096
	}

	// Send stage: drains encoded chunks, retransmitting on failure. The
	// first error is latched and later chunks are drained (and their
	// buffers recycled) without sending, so the producer can never block
	// forever on a dead sender.
	sendCh := make(chan encodedChunk, pipeDepth)
	var sendFailed atomic.Bool
	var sendErr error // written only by the sender; read after wg.Wait
	var totalRows, totalBytes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ck := range sendCh {
			if sendErr == nil {
				// Retransmit on failure: the hub dedups by (part, seq), so
				// resending after a lost acknowledgement is safe. The TCP
				// sink retries internally as well; this loop also covers
				// the in-process path.
				var err error
				for attempt := 0; attempt < sendRetries; attempt++ {
					if attempt > 0 {
						mRetransmits.Inc()
					}
					if err = sink.Send(sessionID, ck.target, ck.seq, ck.msg, ck.rows, ck.dbTime); err == nil {
						break
					}
				}
				if err != nil {
					sendErr = err
					sendFailed.Store(true)
				} else {
					totalRows.Add(int64(ck.rows))
					totalBytes.Add(int64(len(ck.msg)))
				}
			}
			// The sink has decoded or copied the chunk; the buffer is ours
			// again and returns to the pool here.
			putBuf(ck.msg)
		}
	}()

	var schema colstore.Schema
	var buf *colstore.Batch
	localSeq := 0
	// Round-robin cursor for the uniform policy; offset by node and instance
	// so concurrent instances do not all start at worker 0.
	rr := ctx.NodeID + ctx.Instance

	flush := func() error {
		if buf == nil || buf.Len() == 0 {
			return nil
		}
		start := time.Now()
		msg, err := EncodeChunkInto(getBuf(), buf)
		if err != nil {
			return err
		}
		// The staging batch's rows are encoded into msg; reuse it for the
		// next chunk instead of reallocating.
		rows := buf.Len()
		buf.Reset()
		var target int
		switch policy {
		case PolicyLocality:
			// Node i's data goes to partition i (= worker i), Fig. 5.
			target = ctx.NodeID
		case PolicyUniform:
			target = rr % workers
			rr++
		default:
			putBuf(msg)
			return fmt.Errorf("vft: unknown policy %q", policy)
		}
		elapsed := time.Since(start)
		seq := OrderKey(ctx.NodeID, ctx.Instance, localSeq)
		localSeq++
		sendCh <- encodedChunk{target: target, seq: seq, rows: rows, msg: msg, dbTime: elapsed}
		return nil
	}

	produce := func() error {
		for {
			if sendFailed.Load() {
				return nil // the latched sendErr surfaces below
			}
			b, err := in.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if schema == nil {
				schema = b.Schema
				buf = colstore.NewBatchCap(schema, bufRows)
			}
			// Stage rows into the in-memory buffer, flushing every bufRows.
			off := 0
			for off < b.Len() {
				take := bufRows - buf.Len()
				if take > b.Len()-off {
					take = b.Len() - off
				}
				if err := buf.AppendRange(b, off, off+take); err != nil {
					return err
				}
				off += take
				if buf.Len() >= bufRows {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		if schema != nil {
			return flush()
		}
		return nil
	}

	produceErr := sendErrClose(produce, sendCh, &wg)
	if sendErr != nil {
		return sendErr
	}
	if produceErr != nil {
		return produceErr
	}

	summary := colstore.NewBatch(colstore.Schema{
		{Name: "node", Type: colstore.TypeInt64},
		{Name: "rows", Type: colstore.TypeInt64},
		{Name: "bytes", Type: colstore.TypeInt64},
	})
	if err := summary.AppendRow(int64(ctx.NodeID), totalRows.Load(), totalBytes.Load()); err != nil {
		return err
	}
	return out.Write(summary)
}

// sendErrClose runs the producer, then closes the channel and waits for the
// sender to drain — the join point of the two pipeline stages.
func sendErrClose(produce func() error, ch chan encodedChunk, wg *sync.WaitGroup) error {
	err := produce()
	close(ch)
	wg.Wait()
	return err
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
