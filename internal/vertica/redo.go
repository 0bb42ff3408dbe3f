package vertica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/wal"
)

// redo is recovery's replay of the log, one worker per node. The log reader
// (wal.Replay, on the goroutine running recoverState) reads, checks and
// frames the records in LSN order and only cuts a load record into its
// per-node chunks; chunk n goes, in LSN order, to worker n, which decodes it
// into a batch it owns and reuses and appends it to node n's head segment in
// place — no snapshot exists before Open returns, so there is no reader to
// isolate and no version to publish. The nodes' segments are disjoint, so
// the workers share nothing. Every other record first drains the workers and
// then applies on the reader, seeing exactly the state a serial replay would.
type redo struct {
	db      *DB
	work    []chan redoChunk
	pending sync.WaitGroup // chunks handed out and not yet applied
	running sync.WaitGroup // the workers
	// failed is the failure with the lowest LSN a worker has met. The reader
	// hands out no work past it, and workers apply only chunks below it, so
	// it ends as the record a serial replay would have stopped at.
	failed atomic.Pointer[wal.ApplyError]
	wait   time.Duration // the reader's time blocked on the workers
}

// redoChunk is one node's part of a load record.
type redoChunk struct {
	lsn   uint64
	table string
	seg   *colstore.Segment
	chunk []byte
}

// redoQueue bounds the chunks waiting for one worker: enough that the reader
// runs ahead of a node whose chunks are slow, no more, since each holds its
// log segment's bytes.
const redoQueue = 16

// startRedo starts one worker per node. Every call is paired with stop.
func (db *DB) startRedo() *redo {
	r := &redo{db: db, work: make([]chan redoChunk, db.cfg.Nodes)}
	for n := range r.work {
		r.work[n] = make(chan redoChunk, redoQueue)
		r.running.Add(1)
		go r.worker(r.work[n])
	}
	return r
}

// worker applies its node's chunks in the order they arrive.
func (r *redo) worker(in <-chan redoChunk) {
	defer r.running.Done()
	var batch *colstore.Batch // the worker's decode batch, made anew only for another schema
	for c := range in {
		if f := r.failed.Load(); f == nil || c.lsn < f.LSN {
			if batch == nil || !batch.Schema.Equal(c.seg.Schema()) {
				batch = colstore.NewBatch(c.seg.Schema())
			}
			if err := applyChunk(batch, c); err != nil {
				r.fail(&wal.ApplyError{LSN: c.lsn, Err: err})
			}
		}
		r.pending.Done()
	}
}

// applyChunk decodes c into batch and appends it to c's segment, which
// copies the rows out.
func applyChunk(batch *colstore.Batch, c redoChunk) error {
	if err := decodePart(batch, c.table, c.chunk); err != nil {
		return err
	}
	return c.seg.Append(batch)
}

// fail records e unless a failure at a lower LSN is already recorded.
func (r *redo) fail(e *wal.ApplyError) {
	for {
		f := r.failed.Load()
		if f != nil && f.LSN <= e.LSN || r.failed.CompareAndSwap(f, e) {
			return
		}
	}
}

// record is wal.Replay's callback: a load record is cut and handed out, any
// other one applies once the workers are idle.
func (r *redo) record(lsn uint64, typ byte, body []byte) error {
	if f := r.failed.Load(); f != nil {
		return f
	}
	if typ != recLoad {
		if f := r.drain(); f != nil {
			return f
		}
		return r.db.applyWALRecord(lsn, typ, body)
	}
	table, chunks, err := cutLoad(body)
	if err != nil {
		return err
	}
	segs, ok := r.db.store.Latest(table)
	if !ok {
		return fmt.Errorf("vertica: table %q does not exist", table)
	}
	if len(chunks) != len(segs) {
		return fmt.Errorf("vertica: load parts for %d nodes, table %q has %d", len(chunks), table, len(segs))
	}
	for n, chunk := range chunks {
		if chunk == nil {
			continue
		}
		r.pending.Add(1)
		c := redoChunk{lsn: lsn, table: table, seg: segs[n], chunk: chunk}
		select {
		case r.work[n] <- c:
		default: // the worker's queue is full
			t0 := time.Now()
			r.work[n] <- c
			r.wait += time.Since(t0)
		}
	}
	return nil
}

// drain waits until every chunk handed out has applied and returns the
// failure recorded by then, if any.
func (r *redo) drain() *wal.ApplyError {
	t0 := time.Now()
	r.pending.Wait()
	r.wait += time.Since(t0)
	return r.failed.Load()
}

// stop drains the workers, ends them and returns once every one has
// returned, with the failure they recorded, if any.
func (r *redo) stop() error {
	f := r.drain()
	for _, in := range r.work {
		close(in)
	}
	r.running.Wait()
	if f != nil {
		return f
	}
	return nil
}
