package vft

import (
	"fmt"
	"time"

	"verticadr/internal/colstore"
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
// becomes a chunk by copying its blocks behind their length prefixes: no
// decode, no choice of encoding, no encode. Everything else arrives as a
// batch and is encoded by colstore.AppendChunk, cut with a Slice view where
// it crosses a message boundary. Message boundaries never depend on which
// form the rows took.
//
// Each instance is one loop: it reads, appends into a pooled buffer and sends
// each full message itself. The concurrent read-and-send of §3.1 comes from
// the many instances running side by side, one per node-local block range.
// A message buffer returns to the pool once the message is sent or given up
// on — Send implementations never retain msg, and every retransmission is
// made before then, so a retransmit can never observe a recycled buffer.
// Stored blocks are only ever copied from.
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

	// The reader says how many rows are to come when it can also hand them
	// over stored; a message buffer is then sized once, for the rows it will
	// hold, instead of regrown as they arrive.
	stored, _ := in.(udf.StoredReader)
	left := -1 // rows to come, at most; -1: the reader cannot say
	if stored != nil {
		left = stored.MaxRows()
	}
	rowBytes := 0
	for _, c := range ctx.InSchema {
		rowBytes += valueBytes(c.Type)
	}

	var (
		msg        []byte        // the message being built; nil between messages
		rows       int           // rows in msg
		dbTime     time.Duration // spent appending to msg
		localSeq   int
		scratch    []byte // AppendChunk's block scratch, pooled on first use
		nStored    int64  // chunks made of stored blocks
		nEncoded   int64  // chunks encoded from batches
		totalRows  int64  // rows sent
		totalBytes int64  // message bytes sent
	)
	defer func() {
		putBuf(msg)
		putBuf(scratch)
		mBlocksStored.Add(nStored)
		mBlocksEncoded.Add(nEncoded)
	}()
	// Round-robin cursor for the uniform policy; offset by node and instance
	// so concurrent instances do not all start at worker 0.
	rr := ctx.NodeID + ctx.Instance

	// flush sends the message, retransmitting on failure — the one retry of
	// either path: the hub dedups by (part, seq), so resending after a lost
	// acknowledgement is safe. The sink has decoded or written out the
	// message when Send returns, so the buffer goes back to the pool here; a
	// message given up on goes back through the deferred putBuf.
	flush := func() (err error) {
		// Node i's data goes to partition i (= worker i) under the locality
		// policy, Fig. 5.
		target := ctx.NodeID
		if policy == PolicyUniform {
			target = rr % workers
			rr++
		}
		seq := OrderKey(ctx.NodeID, ctx.Instance, localSeq)
		for attempt := 0; attempt < sendRetries; attempt++ {
			if attempt > 0 {
				mRetransmits.Inc()
			}
			if err = sink.Send(sessionID, target, seq, msg, rows, dbTime); err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
		totalRows += int64(rows)
		totalBytes += int64(len(msg))
		putBuf(msg)
		localSeq++
		if left >= 0 {
			left = max(left-rows, 0)
		}
		msg, rows, dbTime = nil, 0, 0
		return nil
	}
	// add appends one chunk of n rows to the message — a block row's stored
	// blocks copied as they are, or else a batch encoded — opening a message
	// when none is open and sending it once it holds psize rows.
	add := func(n int, blocks [][]byte, b *colstore.Batch) (err error) {
		start := time.Now()
		if msg == nil && left < 0 {
			msg = getBuf()
		} else if msg == nil {
			// Sized for the rows it can come to hold; block and chunk
			// headers are a few bytes a column a block row.
			m := min(psize, left)
			msg = getBufCap(m*rowBytes + m/64 + 4096)
		}
		if blocks != nil {
			nStored++
			msg = colstore.AppendStoredChunk(msg, blocks)
		} else {
			if scratch == nil {
				scratch = getBuf()
			}
			nEncoded++
			if msg, scratch, err = colstore.AppendChunk(msg, scratch, b); err != nil {
				return err
			}
		}
		rows += n
		dbTime += time.Since(start)
		if rows == psize {
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
			blocks, n, b, err = stored.NextStored(psize - rows)
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
			part, take := b, min(psize-rows, b.Len()-off)
			if take < b.Len() {
				part = b.Slice(off, off+take)
			}
			if err := add(take, nil, part); err != nil {
				return err
			}
			off += take
		}
	}
	if rows > 0 {
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

// valueBytes is what one value of the type takes in a PLAIN block — for a
// string, a guess — for sizing message buffers.
func valueBytes(t colstore.Type) int {
	switch t {
	case colstore.TypeBool:
		return 1
	case colstore.TypeString:
		return 16
	}
	return 8
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
