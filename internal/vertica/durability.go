package vertica

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"verticadr/internal/atomicfile"
	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/faults"
	"verticadr/internal/wal"
)

// walSubdir holds the log segments and checkpoint marker under DataDir.
const walSubdir = "wal"

// blobStream is the committer key serializing DFS blob journal records. The
// leading NUL keeps it out of the SQL identifier namespace, so it can never
// collide with a table's commit stream.
const blobStream = "\x00blobs"

// committer orders one stream of commits (one table, or the blob namespace).
// A ticket is taken while the WAL record is appended — so ticket order equals
// LSN order — the mutation's build runs at once, still in ticket order, and
// its publish runs strictly in ticket order after the record is durable.
// Between the two, any number of commits from any streams wait on the same
// group-commit fsync, which is where the batching win lives.
type committer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    uint64
	applied uint64
	state   streamState
	rec     []byte // the record scratch prepare encodes from; it outlives state
}

// keepRecBytes bounds the record scratch a committer keeps, as wal.Writer's.
const keepRecBytes = 4 << 20

// streamState is the log-end view of one commit stream's logical state: what
// the stream will look like once every already-appended record has applied.
// prepare validates against it rather than against live state — live state
// lags by the commits still in their group-commit durability wait, so a
// sibling's logged-but-unapplied CREATE/DROP would otherwise be invisible to
// validation. Two concurrent CREATE TABLE t could then both log records, and
// the loser's record (whose apply fails at runtime) would poison recovery:
// replay aborts on it and the database refuses to open. Validating at the
// log end keeps the invariant that every logged record replays cleanly.
//
// A table stream's view also holds the segments at the log end: the ones
// the last build made, published or not. Every build starts from them, so a
// load queued behind a logged but unpublished CREATE INDEX extends the
// indexed segments, not the published ones.
//
// The view is reset whenever the stream is idle (applied == next), at which
// point live state is authoritative and re-seeds it lazily.
type streamState struct {
	seeded bool                // table streams: exists/schema/segs populated from live state
	exists bool                // table streams: table exists at the log end
	schema colstore.Schema     // table streams: schema at the log end (nil when !exists)
	segs   []*colstore.Segment // table streams: segments at the log end (nil when !exists)
	blobs  map[string]bool     // blob stream: path -> exists-at-log-end overlay
}

// seedTable populates the table stream's log-end view from live state the
// first time a pipelined burst validates (caller holds the stream lock).
func (db *DB) seedTable(st *streamState, table string) {
	if st.seeded {
		return
	}
	st.seeded = true
	if def, err := db.cat.Get(table); err == nil {
		st.exists = true
		st.schema = def.Schema
		st.segs, _ = db.store.Latest(table)
	}
}

// blobExists resolves a DFS path against the blob stream's log-end overlay,
// falling through to live state for paths no pending record touches.
func (db *DB) blobExists(st *streamState, path string) bool {
	if v, ok := st.blobs[path]; ok {
		return v
	}
	_, err := db.fs.Stat(path)
	return err == nil
}

func (st *streamState) setBlob(path string, exists bool) {
	if st.blobs == nil {
		st.blobs = make(map[string]bool)
	}
	st.blobs[path] = exists
}

// clone copies the view so commit can restore it when prepare's intent never
// makes it into the log (prepare or Append failed). The schema and segment
// slices are shared — prepares and builds replace them, never mutate them in
// place.
func (st *streamState) clone() streamState {
	out := *st
	if st.blobs != nil {
		out.blobs = make(map[string]bool, len(st.blobs))
		for k, v := range st.blobs {
			out.blobs[k] = v
		}
	}
	return out
}

func (db *DB) committer(stream string) *committer {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.committers[stream]
	if c == nil {
		c = &committer{}
		c.cond = sync.NewCond(&c.mu)
		db.committers[stream] = c
	}
	return c
}

// A mutation is one commit's work, in the three steps commit runs.
type mutation struct {
	// prepare validates against the stream's log-end view, records the
	// mutation's intent there, and encodes the redo record when durable:
	// rec is then the stream's record scratch, else nil.
	prepare func(st *streamState, rec *[]byte) (typ byte, body []byte, err error)
	// build, if set, makes the segments publish will show, from st.segs,
	// and advances st.segs to them. What it makes is private until
	// published: it writes in place only past every published tail's claim
	// (Segment.Clone).
	build func(st *streamState) error
	// publish makes the mutation visible: the MVCC version, the catalog.
	publish func() error
}

// commit runs one mutation through the write-ahead protocol:
//
//  1. prepare validates against the stream's log-end view and encodes the
//     redo record (under the stream lock, so validation and log order cannot
//     be raced by a sibling commit — including one whose record is logged
//     but not yet applied);
//  2. the record is appended to the WAL, the stream ticket taken and the
//     group-commit flush started;
//  3. build runs while the record is written and fsynced, still under the
//     stream lock, so builds run in ticket order, each from the last;
//  4. the committer waits for the record to be durable;
//  5. publish makes the mutation visible, in ticket order.
//
// Nothing is acknowledged before it is durable, and nothing is visible
// before it is durable — a reader can never observe state that a crash
// could take back. Without a WAL (in-memory database) prepare is given no
// record scratch, so it encodes nothing, and build and publish run at once,
// all under the stream lock.
func (db *DB) commit(stream string, m mutation) error {
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	c := db.committer(stream)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.applied == c.next {
		// Stream idle: every logged record has applied, so live state is
		// authoritative again and the log-end view re-seeds from it.
		c.state = streamState{}
	}
	// Snapshot the log-end view: if prepare or Append fails, the intent it
	// recorded never reached the log and must not be visible to the next
	// prepare on this stream.
	prev := c.state.clone()
	var rec *[]byte
	if db.wal != nil {
		rec = &c.rec
	}
	typ, body, err := m.prepare(&c.state, rec)
	if cap(c.rec) > keepRecBytes {
		c.rec = nil
	}
	if err != nil {
		c.state = prev
		return err
	}
	var wait func() error
	if db.wal != nil {
		lsn, err := db.wal.Append(typ, body)
		if err != nil {
			c.state = prev
			return err
		}
		wait = db.wal.Flush(lsn)
	}
	ticket := c.next
	c.next++
	var berr, derr error
	if m.build != nil {
		berr = m.build(&c.state)
	}
	if wait != nil {
		c.mu.Unlock()
		derr = wait()
		c.mu.Lock()
	}
	for c.applied != ticket {
		c.cond.Wait()
	}
	if derr == nil && berr == nil {
		berr = m.publish()
	}
	// Advance the ticket even on a durability failure, or every later commit
	// on the stream (all of which will fail the same way — WAL errors are
	// sticky) would wait forever.
	c.applied++
	c.cond.Broadcast()
	if derr != nil {
		return derr
	}
	return berr
}

// JournalBlobPut writes a DFS blob through the write-ahead log: the record
// is durable before the namespace mutates, which closes the redeploy torn
// window — a crash can no longer leave a model version acknowledged but
// unrecoverable. On a non-durable database the same commit path applies the
// write with no log record.
func (db *DB) JournalBlobPut(path string, data []byte) error {
	return db.commit(blobStream, mutation{
		prepare: func(st *streamState, rec *[]byte) (byte, []byte, error) {
			st.setBlob(path, true)
			if rec == nil {
				return 0, nil, nil
			}
			return recBlobPut, encodeBlobPut(path, data), nil
		},
		publish: func() error { return db.fs.Write(path, data) },
	})
}

// JournalBlobDelete removes a DFS blob through the write-ahead log.
func (db *DB) JournalBlobDelete(path string) error {
	return db.commit(blobStream, mutation{
		prepare: func(st *streamState, rec *[]byte) (byte, []byte, error) {
			// Validate against the log end: a sibling delete may be logged
			// but unapplied, and logging a doomed second delete would abort
			// replay on restart.
			if !db.blobExists(st, path) {
				return 0, nil, fmt.Errorf("dfs: file %q does not exist", path)
			}
			st.setBlob(path, false)
			if rec == nil {
				return 0, nil, nil
			}
			return recBlobDelete, encodeBlobPut(path, nil), nil
		},
		publish: func() error { return db.fs.Delete(path) },
	})
}

// --- recovery --------------------------------------------------------------

// RecoveryInfo describes what startup recovery did: the checkpoint image it
// loaded and the redo pass over the log that followed. Its times split a
// reopen: ImageLoad, then Replay.Elapsed, the redo pass to its last applied
// record, of which ApplyWait is the log reader waiting on the node workers'
// apply and the rest its own reading, checking and framing.
type RecoveryInfo struct {
	CheckpointLSN uint64          // replay horizon (0 = no checkpoint, full log)
	CheckpointDir string          // snapshot directory loaded, "" if none
	ImageLoad     time.Duration   // wall time of the checkpoint image load
	Replay        wal.ReplayStats // redo pass measurements
	ApplyWait     time.Duration   // of Replay.Elapsed, the reader blocked on the workers
	DurableLSN    uint64          // log position after recovery
}

// RecoveryInfo returns what recovery did when the database opened, or nil
// for a non-durable database.
func (db *DB) RecoveryInfo() *RecoveryInfo { return db.recovery }

// WALStats reports the live log position (durable end LSN); zero without a WAL.
func (db *DB) WALStats() (durable uint64, ok bool) {
	if db.wal == nil {
		return 0, false
	}
	return db.wal.DurableLSN(), true
}

// recover brings a durable database to its pre-crash state: load the last
// checkpoint image if one exists, then redo every log record after it.
// Finally the log is opened for appending (truncating any torn tail a crash
// left behind).
func (db *DB) recoverState() error {
	walDir := filepath.Join(db.cfg.DataDir, walSubdir)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return fmt.Errorf("vertica: recover: %w", err)
	}
	info := &RecoveryInfo{}
	ck, haveCk, err := wal.LoadCheckpoint(walDir)
	if err != nil {
		return err
	}
	if haveCk {
		t0 := time.Now()
		if err := db.loadCheckpointImage(filepath.Join(db.cfg.DataDir, ck.Dir)); err != nil {
			return fmt.Errorf("vertica: load checkpoint %q: %w", ck.Dir, err)
		}
		info.ImageLoad = time.Since(t0)
		info.CheckpointLSN = ck.LSN
		info.CheckpointDir = ck.Dir
	}
	t0 := time.Now()
	r := db.startRedo()
	stats, err := wal.Replay(walDir, info.CheckpointLSN, r.record)
	// A worker's failure is on a record the reader had already passed.
	if werr := r.stop(); werr != nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("vertica: redo: %w", err)
	}
	info.Replay = *stats
	info.Replay.Elapsed = time.Since(t0)
	info.ApplyWait = r.wait
	w, err := wal.Open(walDir, wal.Options{SegmentBytes: db.cfg.WALSegmentBytes})
	if err != nil {
		return err
	}
	db.wal = w
	info.DurableLSN = w.DurableLSN()
	db.recovery = info
	return nil
}

// applyWALRecord is the redo interpreter of every record but a load, which
// redo cuts and its node workers apply: it applies one log record to
// in-memory state as the original commit's build and publish did.
func (db *DB) applyWALRecord(lsn uint64, typ byte, body []byte) error {
	switch typ {
	case recCreateTable:
		def, err := decodeCreateTable(body)
		if err != nil {
			return err
		}
		return db.applyCreate(def)
	case recDropTable:
		return db.applyDrop(string(body))
	case recCreateIndex:
		name, table, column, err := decodeIndexDDL(body)
		if err != nil {
			return err
		}
		return db.applyCreateIndex(name, table, column)
	case recDropIndex:
		name, table, column, err := decodeIndexDDL(body)
		if err != nil {
			return err
		}
		return db.applyDropIndex(name, table, column)
	case recBlobPut:
		path, data, err := decodeBlobPut(body)
		if err != nil {
			return err
		}
		return db.fs.Write(path, data)
	case recBlobDelete:
		path, _, err := decodeBlobPut(body)
		if err != nil {
			return err
		}
		return db.fs.Delete(path)
	default:
		return fmt.Errorf("vertica: unknown wal record type %d at lsn %d", typ, lsn)
	}
}

// loadCheckpointImage restores catalog, table segments and DFS blobs from a
// checkpoint snapshot directory. Each node's segment and index files open on
// a goroutine of their own, table after table, the per-node split redo uses;
// a table is published once all its nodes have opened.
func (db *DB) loadCheckpointImage(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		return err
	}
	pc, err := parseCatalogManifest(data)
	if err != nil {
		return err
	}
	if pc.Nodes != db.cfg.Nodes {
		return fmt.Errorf("vertica: cluster size %d does not match checkpointed %d", db.cfg.Nodes, pc.Nodes)
	}
	defs := make([]*catalog.TableDef, len(pc.Tables))
	segs := make([][]*colstore.Segment, len(pc.Tables)) // per table, per node
	for i, pt := range pc.Tables {
		if defs[i], err = manifestTableDef(pt); err != nil {
			return err
		}
		if err := db.applyCreate(defs[i]); err != nil {
			return err
		}
		segs[i] = make([]*colstore.Segment, db.cfg.Nodes)
	}
	errs := make([]error, db.cfg.Nodes)
	var wg sync.WaitGroup
	for node := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, def := range defs {
				if segs[i][node], errs[node] = openImageNode(filepath.Join(dir, "tables", def.Name), def, node, pc.Indexes, db.cfg.BlockRows); errs[node] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, def := range defs {
		db.registerIndexes(pc.Indexes, def.Name)
		db.store.Put(def.Name, segs[i])
	}
	blobRoot := filepath.Join(dir, "blobs")
	return filepath.WalkDir(blobRoot, func(path string, d os.DirEntry, err error) error {
		if os.IsNotExist(err) {
			return nil // checkpoint with no blobs
		}
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(blobRoot, path)
		if err != nil {
			return err
		}
		return db.fs.Write(filepath.ToSlash(rel), data)
	})
}

// --- checkpoint ------------------------------------------------------------

// Checkpoint materializes the full database state (catalog, every table's
// segments, every DFS blob) into a new snapshot directory, atomically
// switches the checkpoint marker to it, and truncates log segments the new
// checkpoint makes dead. Commits are quiesced only while the state image is
// captured (the WAL is synced and the MVCC snapshot pinned); the actual file
// writing happens concurrently with new commits. Returns the checkpoint LSN.
func (db *DB) Checkpoint() (uint64, error) {
	if db.wal == nil {
		return 0, fmt.Errorf("vertica: checkpoint requires a durable database")
	}
	if err := faults.Check(faults.SiteWALCheckpoint); err != nil {
		return 0, err
	}

	// Quiesce: with the write lock held no commit is between its WAL append
	// and its publish, so the durable LSN and the MVCC head describe
	// the same state.
	db.ckptMu.Lock()
	if err := db.wal.Sync(); err != nil {
		db.ckptMu.Unlock()
		return 0, err
	}
	lsn := db.wal.DurableLSN()
	snap := db.store.Snapshot()
	defs := make([]*catalog.TableDef, 0)
	for _, name := range db.cat.List() {
		def, err := db.cat.Get(name)
		if err != nil {
			snap.Release()
			db.ckptMu.Unlock()
			return 0, err
		}
		defs = append(defs, def)
	}
	idxs := db.Indexes()
	blobs := make(map[string][]byte)
	for _, info := range db.fs.List() {
		data, err := db.fs.Read(info.Name)
		if err != nil {
			snap.Release()
			db.ckptMu.Unlock()
			return 0, err
		}
		blobs[info.Name] = data
	}
	db.ckptMu.Unlock()
	defer snap.Release()

	// Materialize the image outside the lock: everything captured above is
	// immutable (pinned versions, copied blob bytes, def values).
	dirName := fmt.Sprintf("chk-%016x", lsn)
	full := filepath.Join(db.cfg.DataDir, dirName)
	if err := os.RemoveAll(full); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(full, 0o755); err != nil {
		return 0, err
	}
	manifest, err := encodeCatalogManifest(db.cfg.Nodes, defs, idxs)
	if err != nil {
		return 0, err
	}
	if err := atomicfile.WriteFile(filepath.Join(full, catalogFile), manifest, 0o644); err != nil {
		return 0, err
	}
	for _, def := range defs {
		segs, ok := snap.Segments(def.Name)
		if !ok {
			continue // created after the snapshot? impossible under the lock; dropped tables are not in defs
		}
		dir := filepath.Join(full, "tables", def.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		for node, seg := range segs {
			// Persist seals, which mutates — never touch a published version.
			if err := seg.Clone().Persist(filepath.Join(dir, fmt.Sprintf("node%d.vseg", node))); err != nil {
				return 0, err
			}
		}
		// Persist the B-trees of this table's secondary indexes so a restart
		// from the checkpoint loads them instead of rebuilding.
		if err := db.persistIndexes(dir, def.Name, segs, idxs); err != nil {
			return 0, err
		}
	}
	for name, data := range blobs {
		path := filepath.Join(full, "blobs", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return 0, err
		}
		if err := atomicfile.WriteFile(path, data, 0o644); err != nil {
			return 0, err
		}
	}
	// Make the image durable as a tree before the marker can point at it:
	// every directory created above (tables/, per-table dirs, blob subdirs)
	// needs its entries committed — syncing only the root would let a crash
	// after the marker install surface a checkpoint missing segment files,
	// with the pre-checkpoint log already truncated. The data root is synced
	// too, so the checkpoint directory's own entry survives the crash.
	if err := atomicfile.SyncTree(full); err != nil {
		return 0, err
	}
	if err := atomicfile.SyncDir(db.cfg.DataDir); err != nil {
		return 0, err
	}

	// Switch the marker, then garbage-collect: log segments wholly below the
	// checkpoint and snapshot directories it replaced.
	walDir := filepath.Join(db.cfg.DataDir, walSubdir)
	if err := wal.SaveCheckpoint(walDir, wal.Checkpoint{LSN: lsn, Dir: dirName, UnixNano: time.Now().UnixNano()}); err != nil {
		return 0, err
	}
	if _, err := db.wal.TruncateBefore(lsn); err != nil {
		return 0, err
	}
	db.removeStaleCheckpoints(dirName)
	return lsn, nil
}

// removeStaleCheckpoints deletes chk-* directories other than current.
func (db *DB) removeStaleCheckpoints(current string) {
	entries, err := os.ReadDir(db.cfg.DataDir)
	if err != nil {
		return
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "chk-") && e.Name() != current {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		os.RemoveAll(filepath.Join(db.cfg.DataDir, n))
	}
}

// Close flushes and closes the write-ahead log (no-op without one). The
// database must not be used after Close.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}
