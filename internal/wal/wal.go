package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/atomicfile"
	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
)

// Group-commit observability: how many commits each fsync retires, how long
// a commit waits for durability, and the raw append/fsync volume.
var (
	mAppends     = telemetry.Default().Counter("wal_appends_total")
	mAppendBytes = telemetry.Default().Counter("wal_append_bytes_total")
	mFsyncs      = telemetry.Default().Counter("wal_fsyncs_total")
	mRotations   = telemetry.Default().Counter("wal_rotations_total")
	hFsyncBatch  = telemetry.Default().Histogram("wal_fsync_batch_commits",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	hCommitWait = telemetry.Default().Histogram("wal_commit_seconds", nil)
)

// Options size a Writer.
type Options struct {
	// SegmentBytes rotates to a new log file once the current one reaches
	// this size (default 64 MB). Records never span segments; a segment may
	// overshoot by the final batch flushed into it.
	SegmentBytes int64
}

const defaultSegmentBytes = 64 << 20

// segPrefix/segSuffix name log segments by their starting LSN so the byte
// offset of any record maps directly to (file, offset).
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(start uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the segment start LSNs in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range entries {
		if s, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

type waiter struct {
	lsn   uint64
	ch    chan error
	start time.Time
}

// Writer is the append side of the log. Append frames a record into an
// in-memory buffer and returns its end LSN; Flush starts making that LSN
// durable and returns the wait for it, and Commit is the two in one call. A
// single background syncer drains the buffer: it takes whatever
// records and waiters have accumulated, performs ONE write+fsync, and wakes
// every waiter — the group commit that lets N concurrent committers share
// one disk flush. Safe for concurrent use.
type Writer struct {
	dir      string
	segBytes int64

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // LSN of the current file's first byte
	end      uint64 // next LSN (includes records still in pending)
	pending  []byte // framed records not yet written+synced
	spare    []byte // the syncer's: the last flushed buffer, emptied, pending's next
	waiters  []waiter
	err      error // sticky: a failed write/fsync poisons the writer
	closed   bool

	durable  atomic.Uint64 // highest fsynced LSN
	kick     chan struct{}
	stop     chan struct{}
	loopDone chan struct{}
}

// Open positions a Writer at the end of the log in dir, creating the first
// segment if the directory is empty. A torn final record (crash mid-append)
// is physically truncated away before appending resumes, so the log always
// ends at a record boundary.
func Open(dir string, opts Options) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	w := &Writer{
		dir:      dir,
		segBytes: opts.SegmentBytes,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if len(starts) == 0 {
		if err := w.openSegment(0); err != nil {
			return nil, err
		}
	} else {
		// Only the last segment can end mid-record; earlier segments were
		// fully flushed before rotation.
		last := starts[len(starts)-1]
		path := filepath.Join(dir, segName(last))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read tail segment: %w", err)
		}
		valid := uint64(0)
		for int(valid) < len(data) {
			_, _, n, err := decodeFrame(data[valid:])
			if err != nil {
				break // torn tail: resume appending at the last whole record
			}
			valid += n
		}
		if int64(valid) != int64(len(data)) {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open tail segment: %w", err)
		}
		w.f = f
		w.segStart = last
		w.end = last + valid
	}
	w.durable.Store(w.end)
	go w.syncLoop()
	return w, nil
}

// openSegment creates a fresh segment starting at LSN start (caller holds
// mu or is the constructor).
func (w *Writer) openSegment(start uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(start)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := atomicfile.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segStart = start
	return nil
}

// Append frames one record and returns the LSN to Commit on. The record is
// NOT durable until Commit (or Sync) returns for an LSN >= the returned one.
func (w *Writer) Append(typ byte, body []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, fmt.Errorf("wal: writer closed")
	}
	if err := faults.Check(faults.SiteWALAppend); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if len(body) > MaxRecordBody {
		return 0, fmt.Errorf("wal: record body %d exceeds limit", len(body))
	}
	w.pending = appendFrame(w.pending, typ, body)
	w.end += frameSize(len(body))
	mAppends.Inc()
	mAppendBytes.Add(int64(frameSize(len(body))))
	return w.end, nil
}

// Commit blocks until every record at or below lsn is durable (written and
// fsynced). Concurrent commits are batched: all waiters present when the
// syncer wakes share a single fsync.
func (w *Writer) Commit(lsn uint64) error { return w.Flush(lsn)() }

// Flush starts making every record at or below lsn durable — it registers
// the caller's waiter and kicks the syncer — and returns the wait for it,
// so the caller can work while the write and fsync run. Commit is Flush
// and its wait.
func (w *Writer) Flush(lsn uint64) (wait func() error) {
	if w.durable.Load() >= lsn {
		return durableNow
	}
	w.mu.Lock()
	if err := w.err; err != nil {
		w.mu.Unlock()
		return func() error { return err }
	}
	if w.durable.Load() >= lsn {
		w.mu.Unlock()
		return durableNow
	}
	if w.closed {
		// Registering a waiter now could outlive the syncer's final drain
		// and never be woken; fail fast instead (Close documents that racing
		// commits may receive an error).
		w.mu.Unlock()
		return func() error { return fmt.Errorf("wal: writer closed") }
	}
	wt := waiter{lsn: lsn, ch: make(chan error, 1), start: time.Now()}
	w.waiters = append(w.waiters, wt)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return func() error {
		err := <-wt.ch
		hCommitWait.Observe(time.Since(wt.start).Seconds())
		return err
	}
}

func durableNow() error { return nil }

// AppendCommit appends one record and waits for it to be durable.
func (w *Writer) AppendCommit(typ byte, body []byte) (uint64, error) {
	lsn, err := w.Append(typ, body)
	if err != nil {
		return 0, err
	}
	return lsn, w.Commit(lsn)
}

// Sync flushes everything appended so far and returns once it is durable.
func (w *Writer) Sync() error {
	w.mu.Lock()
	end := w.end
	w.mu.Unlock()
	return w.Commit(end)
}

// DurableLSN returns the highest fsynced LSN.
func (w *Writer) DurableLSN() uint64 { return w.durable.Load() }

func (w *Writer) syncLoop() {
	defer close(w.loopDone)
	for {
		select {
		case <-w.kick:
			w.flushBatch()
		case <-w.stop:
			// Final drain on Close: serve or fail any waiter left behind.
			w.flushBatch()
			return
		}
	}
}

// flushBatch is one group commit: snapshot the buffer and waiters, do one
// write+fsync, advance the durable horizon, wake everyone.
func (w *Writer) flushBatch() {
	w.mu.Lock()
	buf := w.pending
	ws := w.waiters
	w.pending, w.spare = w.spare, nil
	w.waiters = nil
	target := w.end
	f := w.f
	sticky := w.err
	w.mu.Unlock()
	if len(buf) == 0 && len(ws) == 0 {
		w.spare = buf
		return
	}
	err := sticky
	needSync := len(buf) > 0
	for _, wt := range ws {
		if wt.lsn > w.durable.Load() {
			needSync = true
		}
	}
	if err == nil && needSync {
		err = faults.Check(faults.SiteWALFsync)
		if err == nil && len(buf) > 0 {
			_, err = f.Write(buf)
		}
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			mFsyncs.Inc()
			hFsyncBatch.Observe(float64(max(len(ws), 1)))
			w.durable.Store(target)
		}
	}
	if err != nil {
		// A failed or crashed flush poisons the writer: the durable horizon
		// stays where it was, nothing past it may be acknowledged, and all
		// later appends/commits fail fast.
		w.mu.Lock()
		if w.err == nil {
			w.err = fmt.Errorf("wal: flush failed: %w", err)
		}
		err = w.err
		w.mu.Unlock()
	}
	for _, wt := range ws {
		wt.ch <- err
	}
	// The buffer is pending's again at the next flush, so appends stop
	// regrowing it; one that a large batch grew past keepBufBytes is let go.
	if cap(buf) <= keepBufBytes {
		w.spare = buf[:0]
	}
	if err == nil {
		w.maybeRotate(target)
	}
}

// keepBufBytes bounds the flushed buffer the syncer keeps for reuse.
const keepBufBytes = 4 << 20

// maybeRotate starts a new segment once the current file has reached the
// size threshold. target is the durable end of the just-flushed batch: the
// rotation boundary, guaranteed to be a record boundary.
func (w *Writer) maybeRotate(target uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.closed {
		return
	}
	if int64(target-w.segStart) < w.segBytes {
		return
	}
	old := w.f
	if err := w.openSegment(target); err != nil {
		w.err = err
		return
	}
	old.Close()
	mRotations.Inc()
}

// TruncateBefore removes whole segments that lie entirely below lsn —
// called after a checkpoint has made their records redundant. The segment
// containing lsn is kept. Returns the number of files removed.
func (w *Writer) TruncateBefore(lsn uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	starts, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, s := range starts {
		// A segment is disposable if the next segment starts at or below
		// lsn (so every record in this one is below it) and it is not the
		// file currently being appended to.
		if i+1 >= len(starts) || starts[i+1] > lsn || s == w.segStart {
			break
		}
		if err := os.Remove(filepath.Join(w.dir, segName(s))); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := atomicfile.SyncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close flushes outstanding records and releases the file. Commit calls
// racing Close may receive an error (never a hang); acknowledged commits
// stay durable.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	// Stop the syncer: its shutdown path runs one final flushBatch, which
	// writes+fsyncs everything appended so far and wakes every registered
	// waiter. closed is already set, so no new waiter can register after
	// that final snapshot.
	close(w.stop)
	<-w.loopDone
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	// Defensively settle anything still on the waiter list — honestly, by
	// the durable horizon — so no Commit can block forever past Close.
	for _, wt := range w.waiters {
		switch {
		case w.err != nil:
			wt.ch <- w.err
		case wt.lsn <= w.durable.Load():
			wt.ch <- nil
		default:
			wt.ch <- fmt.Errorf("wal: writer closed")
		}
	}
	w.waiters = nil
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}
