// Package vertica assembles the MPP columnar database substitute: an N-node
// cluster where each table is stored as per-node segments (internal/colstore)
// placed by the table's segmentation scheme (internal/catalog), queried
// through the SQL engine (internal/sqlparse + internal/sqlexec), extended by
// user-defined transform functions (internal/udf) and backed by a replicated
// blob file system for models (internal/dfs). It corresponds to the
// database half of Figure 2 in the paper.
//
// Durable mode adds an ingest write-ahead log and MVCC snapshot isolation:
// every mutation (DDL, COPY/INSERT, model-blob write) appends a redo record,
// builds its new immutable table version while the group-commit fsync runs,
// and only once the record is durable publishes it; SELECT pins a version snapshot for its whole run, so long
// reads observe one consistent instant regardless of concurrent ingest. On
// restart, recovery loads the last checkpoint image and replays the log.
package vertica

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/dfs"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/txn"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
	"verticadr/internal/wal"
)

// Config configures a database cluster.
type Config struct {
	// Nodes is the cluster size (>= 1).
	Nodes int
	// UDFInstancesPerNode is the planner's PARTITION BEST parallelism
	// (default 4).
	UDFInstancesPerNode int
	// Replication is the DFS replication factor for model blobs (default 2).
	Replication int
	// BlockRows overrides the storage block size (default
	// colstore.DefaultBlockRows).
	BlockRows int
	// DataDir is the directory Durable persists under. Set without Durable
	// it only spills DFS model blobs there: tables, catalog and indexes stay
	// in memory and are gone on Close.
	DataDir string
	// Durable enables write-ahead logging and checkpoints under DataDir —
	// the only on-disk format for tables: every commit is fsync-durable
	// before it is acknowledged or visible, and Open recovers the pre-crash
	// state from checkpoint + log replay.
	Durable bool
	// WALSegmentBytes overrides the log segment rotation size (default 64 MB).
	WALSegmentBytes int64
}

// DB is a running database cluster.
type DB struct {
	cfg      Config
	cat      *catalog.Catalog
	udfs     *udf.Registry
	fs       *dfs.DFS
	mu       sync.RWMutex // guards split, services, committers, indexes
	store    *txn.Store
	split    map[string]*catalog.Splitter
	services map[string]any
	indexes  map[string]IndexDef
	epoch    atomic.Uint64 // bumped by every DDL apply; see CatalogEpoch

	// Durability (nil/zero for in-memory databases).
	wal        *wal.Writer
	ckptMu     sync.RWMutex // commits hold R; checkpoint capture holds W
	committers map[string]*committer
	recovery   *RecoveryInfo
}

// Open creates a cluster. With cfg.Durable it recovers any state persisted
// under cfg.DataDir (checkpoint image + write-ahead log replay) and opens
// the log for appending.
func Open(cfg Config) (*DB, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("vertica: need at least 1 node")
	}
	if cfg.UDFInstancesPerNode <= 0 {
		cfg.UDFInstancesPerNode = 4
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Durable && cfg.DataDir == "" {
		return nil, fmt.Errorf("vertica: Durable requires DataDir")
	}
	var spill string
	if cfg.DataDir != "" {
		spill = filepath.Join(cfg.DataDir, "dfs")
	}
	fs, err := dfs.New(cfg.Nodes, cfg.Replication, spill)
	if err != nil {
		return nil, err
	}
	db := &DB{
		cfg:        cfg,
		cat:        catalog.New(),
		udfs:       udf.NewRegistry(),
		fs:         fs,
		store:      txn.NewStore(),
		split:      make(map[string]*catalog.Splitter),
		services:   make(map[string]any),
		indexes:    make(map[string]IndexDef),
		committers: make(map[string]*committer),
	}
	db.services["dfs"] = fs
	if cfg.Durable {
		if err := db.recoverState(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// NumNodes returns the cluster size.
func (db *DB) NumNodes() int { return db.cfg.Nodes }

// Catalog exposes the table catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// DFS exposes the internal distributed file system.
func (db *DB) DFS() *dfs.DFS { return db.fs }

// UDFs returns the transform-function registry (sqlexec.Database).
func (db *DB) UDFs() *udf.Registry { return db.udfs }

// UDFInstancesPerNode implements sqlexec.Database.
func (db *DB) UDFInstancesPerNode() int { return db.cfg.UDFInstancesPerNode }

// Services implements sqlexec.Database.
func (db *DB) Services() map[string]any {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]any, len(db.services))
	for k, v := range db.services {
		out[k] = v
	}
	return out
}

// RegisterService exposes an extension service to UDFs by name.
func (db *DB) RegisterService(name string, svc any) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.services[name] = svc
}

// TableDef implements sqlexec.Database.
func (db *DB) TableDef(name string) (*catalog.TableDef, error) { return db.cat.Get(name) }

// Segments implements sqlexec.Database: the head (latest committed) version
// of the table. The returned segments are immutable — ingest publishes new
// versions instead of mutating published ones — so callers may scan them
// without tearing regardless of concurrent COPYs.
func (db *DB) Segments(name string) ([]*colstore.Segment, error) {
	segs, ok := db.store.Latest(name)
	if !ok {
		return nil, fmt.Errorf("vertica: %w: table %q has no storage", verr.ErrTableNotFound, name)
	}
	return segs, nil
}

// CreateTable registers a table and allocates its per-node segments.
func (db *DB) CreateTable(def *catalog.TableDef) error {
	var segs []*colstore.Segment
	return db.commit(def.Name, mutation{
		prepare: func(st *streamState, rec *[]byte) (byte, []byte, error) {
			db.seedTable(st, def.Name)
			if st.exists {
				return 0, nil, fmt.Errorf("catalog: table %q already exists", def.Name)
			}
			if err := catalog.ValidateShape(def); err != nil {
				return 0, nil, err
			}
			if _, err := catalog.NewSplitter(def.Seg, def.Schema, db.cfg.Nodes); err != nil {
				return 0, nil, err
			}
			segs = db.newSegments(def.Schema)
			st.exists, st.schema, st.segs = true, def.Schema, segs
			if rec == nil {
				return 0, nil, nil
			}
			body, err := encodeCreateTable(def)
			return recCreateTable, body, err
		},
		publish: func() error { return db.publishCreate(def, segs) },
	})
}

// newSegments allocates a table's empty per-node segments.
func (db *DB) newSegments(schema colstore.Schema) []*colstore.Segment {
	segs := make([]*colstore.Segment, db.cfg.Nodes)
	for i := range segs {
		segs[i] = colstore.NewSegment(schema, db.cfg.BlockRows)
	}
	return segs
}

// applyCreate is CREATE TABLE's redo: the commit's publish over new segments.
func (db *DB) applyCreate(def *catalog.TableDef) error {
	return db.publishCreate(def, db.newSegments(def.Schema))
}

func (db *DB) publishCreate(def *catalog.TableDef, segs []*colstore.Segment) error {
	if err := db.cat.Create(def); err != nil {
		return err
	}
	sp, err := catalog.NewSplitter(def.Seg, def.Schema, db.cfg.Nodes)
	if err != nil {
		db.cat.Drop(def.Name) //nolint:errcheck // best-effort rollback
		return err
	}
	db.mu.Lock()
	db.split[def.Name] = sp
	db.mu.Unlock()
	db.store.Put(def.Name, segs)
	db.epoch.Add(1)
	return nil
}

// DropTable removes a table and its storage. Snapshots pinned before the
// drop keep reading the table until released.
func (db *DB) DropTable(name string) error {
	return db.commit(name, mutation{
		prepare: func(st *streamState, rec *[]byte) (byte, []byte, error) {
			db.seedTable(st, name)
			if !st.exists {
				return 0, nil, fmt.Errorf("catalog: %w: %q", verr.ErrTableNotFound, name)
			}
			st.exists, st.schema, st.segs = false, nil, nil
			return recDropTable, []byte(name), nil
		},
		publish: func() error { return db.applyDrop(name) },
	})
}

func (db *DB) applyDrop(name string) error {
	if err := db.cat.Drop(name); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.split, name)
	db.mu.Unlock()
	db.store.Drop(name)
	db.dropTableIndexMeta(name)
	db.epoch.Add(1)
	return nil
}

// Load appends a batch of rows to a table, routing rows to nodes by the
// table's segmentation scheme (the bulk-load / COPY path). The load is one
// atomic commit: it is WAL-durable before any row becomes visible, and a
// concurrent snapshot sees either all of the batch or none of it.
func (db *DB) Load(table string, b *colstore.Batch) error {
	db.mu.RLock()
	sp := db.split[table]
	db.mu.RUnlock()
	if sp == nil {
		return fmt.Errorf("vertica: table %q does not exist", table)
	}
	// The per-node batches are the load's own: the commit path reads them
	// twice — WAL encode, then the build — long after the split, beside
	// concurrent Loads into the same table.
	parts, err := sp.SplitOwned(b)
	if err != nil {
		return err
	}
	return db.loadParts(table, parts)
}

// LoadAt appends rows directly to one node's segment, bypassing the
// segmentation scheme. Tests and benchmarks use it to construct skewed
// segmentations (§3.2).
func (db *DB) LoadAt(table string, node int, b *colstore.Batch) error {
	def, err := db.cat.Get(table)
	if err != nil {
		return fmt.Errorf("vertica: table %q does not exist", table)
	}
	if node < 0 || node >= db.cfg.Nodes {
		return fmt.Errorf("vertica: no node %d", node)
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if !b.Schema.Equal(def.Schema) {
		return fmt.Errorf("vertica: load batch schema mismatch for %q", table)
	}
	parts := make([]*colstore.Batch, db.cfg.Nodes)
	parts[node] = b
	return db.loadParts(table, parts)
}

// loadParts commits post-split per-node batches through the write-ahead
// protocol. The build appends them to the log-end segments while the record
// syncs; the publish makes that the table's new version.
func (db *DB) loadParts(table string, parts []*colstore.Batch) error {
	var next []*colstore.Segment
	return db.commit(table, mutation{
		prepare: func(st *streamState, rec *[]byte) (byte, []byte, error) {
			db.seedTable(st, table)
			if !st.exists {
				return 0, nil, fmt.Errorf("vertica: table %q does not exist", table)
			}
			// Check against the log-end schema: a pipelined DROP+CREATE may
			// have replaced the table since this load's batches were split.
			for _, p := range parts {
				if p != nil && p.Len() > 0 && !p.Schema.Equal(st.schema) {
					return 0, nil, fmt.Errorf("vertica: load batch schema mismatch for %q", table)
				}
			}
			if rec == nil {
				return 0, nil, nil
			}
			body, err := encodeLoadWith(rec, table, parts)
			return recLoad, body, err
		},
		build: func(st *streamState) error {
			segs, err := appendParts(table, st.segs, parts)
			if err != nil {
				return err
			}
			next, st.segs = segs, segs
			return nil
		},
		publish: func() error {
			db.store.Put(table, next)
			return nil
		},
	})
}

// appendParts returns the table version with part n's rows appended to node
// n's segment: a segment receiving rows is cloned (copy-on-write) and
// appended on a goroutine of its own — on the caller's when it is the only
// one — and the others are shared. Published versions are never mutated,
// which is what lets snapshots and in-flight scans proceed without locks.
// Recovery's redo appends in place instead.
func appendParts(table string, cur []*colstore.Segment, parts []*colstore.Batch) ([]*colstore.Segment, error) {
	if len(parts) != len(cur) {
		return nil, fmt.Errorf("vertica: load parts for %d nodes, table %q has %d", len(parts), table, len(cur))
	}
	next := slices.Clone(cur)
	errs := make([]error, len(cur))
	grow := func(n int) {
		next[n] = cur[n].Clone()
		errs[n] = next[n].Append(parts[n])
	}
	var wg sync.WaitGroup
	first := -1
	for n, part := range parts {
		switch {
		case part == nil || part.Len() == 0:
		case first < 0:
			first = n
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				grow(n)
			}()
		}
	}
	if first >= 0 {
		grow(first)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return next, nil
}

// LoadColumns is a convenience bulk loader from float64 column slices.
func (db *DB) LoadColumns(table string, cols [][]float64) error {
	def, err := db.cat.Get(table)
	if err != nil {
		return err
	}
	if len(cols) != len(def.Schema) {
		return fmt.Errorf("vertica: %d columns for table with %d", len(cols), len(def.Schema))
	}
	b := &colstore.Batch{Schema: def.Schema, Cols: make([]*colstore.Vector, len(cols))}
	for i, c := range cols {
		if def.Schema[i].Type != colstore.TypeFloat64 {
			return fmt.Errorf("vertica: LoadColumns requires FLOAT columns, %q is %v", def.Schema[i].Name, def.Schema[i].Type)
		}
		b.Cols[i] = colstore.FloatVector(c)
	}
	if err := b.Validate(); err != nil {
		return err
	}
	return db.Load(table, b)
}

// TableRows returns the table's total row count across nodes.
func (db *DB) TableRows(table string) (int, error) {
	segs, err := db.Segments(table)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, s := range segs {
		total += s.Rows()
	}
	return total, nil
}

// SegmentSizes returns per-node row counts (the segmentation layout that the
// locality-preserving transfer policy mirrors).
func (db *DB) SegmentSizes(table string) ([]int, error) {
	segs, err := db.Segments(table)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(segs))
	for i, s := range segs {
		out[i] = s.Rows()
	}
	return out, nil
}

// ExecContext runs a statement, discarding any result rows.
func (db *DB) ExecContext(ctx context.Context, sql string) error {
	_, err := db.QueryContext(ctx, sql)
	return err
}

// QueryContext parses and executes a single SQL statement. DDL and INSERT
// return an empty result. SELECT execution honors cancellation at scan-block
// and aggregation-chunk boundaries; the returned error then wraps
// verr.ErrCanceled.
func (db *DB) QueryContext(ctx context.Context, sql string) (*sqlexec.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.RunStatement(ctx, stmt, sql)
}

// RunStatement executes an already-parsed statement. The serving layer uses
// it to execute cached (prepared) plans without reparsing; sql is only used
// to label PROFILE output. SELECT runs against a pinned MVCC snapshot: the
// whole query — scans, aggregations, prediction UDFs — observes the database
// as of one commit timestamp, however long it runs and whatever commits
// meanwhile.
func (db *DB) RunStatement(ctx context.Context, stmt sqlparse.Statement, sql string) (*sqlexec.Result, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		sv := db.snapshotView()
		defer sv.close()
		res, err := sqlexec.RunSelectCtx(ctx, sv, s)
		if err == nil && res.Profile != nil {
			res.Profile.Query = strings.TrimRight(strings.TrimSpace(sql), ";")
		}
		return res, err
	case *sqlparse.Explain:
		sv := db.snapshotView()
		defer sv.close()
		return sqlexec.RunExplainCtx(ctx, sv, s)
	case *sqlparse.CreateTable:
		return emptyResult(), db.execCreate(s)
	case *sqlparse.DropTable:
		return emptyResult(), db.DropTable(s.Name)
	case *sqlparse.CreateIndex:
		return emptyResult(), db.CreateIndex(s.Name, s.Table, s.Column)
	case *sqlparse.DropIndex:
		return emptyResult(), db.DropIndex(s.Name)
	case *sqlparse.Insert:
		return emptyResult(), db.execInsert(s)
	default:
		return nil, fmt.Errorf("vertica: unsupported statement %T", stmt)
	}
}

// snapshotView adapts a pinned MVCC snapshot to sqlexec.Database. Everything
// except table storage delegates to the live database; Segments serves the
// snapshot's frozen versions.
type snapshotView struct {
	db   *DB
	snap *txn.Snap
}

func (db *DB) snapshotView() *snapshotView {
	return &snapshotView{db: db, snap: db.store.Snapshot()}
}

func (v *snapshotView) close() { v.snap.Release() }

// TableDef resolves against the snapshot: when the live catalog definition
// no longer matches the pinned version (the table was dropped or replaced
// mid-query), the definition is reconstructed from the frozen segments so
// the running query keeps a self-consistent schema.
func (v *snapshotView) TableDef(name string) (*catalog.TableDef, error) {
	segs, ok := v.snap.Segments(name)
	if !ok {
		if _, err := v.db.cat.Get(name); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("vertica: %w: table %q created after query snapshot", verr.ErrTableNotFound, name)
	}
	if def, err := v.db.cat.Get(name); err == nil && len(segs) > 0 && def.Schema.Equal(segs[0].Schema()) {
		return def, nil
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("vertica: %w: table %q has no storage", verr.ErrTableNotFound, name)
	}
	return &catalog.TableDef{Name: name, Schema: segs[0].Schema()}, nil
}

func (v *snapshotView) Segments(name string) ([]*colstore.Segment, error) {
	segs, ok := v.snap.Segments(name)
	if !ok {
		return nil, fmt.Errorf("vertica: %w: table %q has no storage", verr.ErrTableNotFound, name)
	}
	return segs, nil
}

func (v *snapshotView) UDFs() *udf.Registry      { return v.db.udfs }
func (v *snapshotView) UDFInstancesPerNode() int { return v.db.cfg.UDFInstancesPerNode }
func (v *snapshotView) Services() map[string]any { return v.db.Services() }

var _ sqlexec.Database = (*snapshotView)(nil)

// shardView restricts a pinned snapshot to a subset of node segments: its
// Segments returns only the selected shards (in the order given), so the
// executor sees a database whose nodes are exactly those shards. Cluster
// peers use it to run a query over the shards they own.
type shardView struct {
	*snapshotView
	shards []int
}

func (v *shardView) Segments(name string) ([]*colstore.Segment, error) {
	segs, err := v.snapshotView.Segments(name)
	if err != nil {
		return nil, err
	}
	out := make([]*colstore.Segment, 0, len(v.shards))
	for _, s := range v.shards {
		if s < 0 || s >= len(segs) {
			return nil, fmt.Errorf("vertica: table %q has no shard %d", name, s)
		}
		out = append(out, segs[s])
	}
	return out, nil
}

var _ sqlexec.Database = (*shardView)(nil)

// View returns an sqlexec.Database over a pinned MVCC snapshot of every
// node's segments — the view RunStatement runs a SELECT on — plus a release
// function that must be called when the query finishes.
func (db *DB) View() (sqlexec.Database, func()) {
	sv := db.snapshotView()
	return sv, sv.close
}

// ShardView returns an sqlexec.Database over a pinned MVCC snapshot
// restricted to the given node segments, plus a release function that must
// be called when the query finishes. The view observes the database as of
// one commit timestamp, like RunStatement's SELECT path.
func (db *DB) ShardView(shards []int) (sqlexec.Database, func()) {
	sv := db.snapshotView()
	return &shardView{snapshotView: sv, shards: shards}, sv.close
}

func emptyResult() *sqlexec.Result {
	return &sqlexec.Result{Batch: colstore.NewBatch(colstore.Schema{})}
}

func (db *DB) execCreate(s *sqlparse.CreateTable) error {
	schema := make(colstore.Schema, 0, len(s.Cols))
	for _, c := range s.Cols {
		t, err := colstore.ParseType(c.Type)
		if err != nil {
			return err
		}
		schema = append(schema, colstore.ColumnSchema{Name: c.Name, Type: t})
	}
	def := &catalog.TableDef{Name: s.Name, Schema: schema}
	if s.Seg != nil {
		if s.Seg.Hash {
			def.Seg = catalog.Segmentation{Kind: catalog.SegHash, Column: s.Seg.Column}
		} else {
			def.Seg = catalog.Segmentation{Kind: catalog.SegRoundRobin}
		}
	}
	return db.CreateTable(def)
}

func (db *DB) execInsert(s *sqlparse.Insert) error {
	def, err := db.cat.Get(s.Table)
	if err != nil {
		return err
	}
	b, err := InsertBatch(def, s)
	if err != nil {
		return err
	}
	return db.Load(s.Table, b)
}

// InsertBatch materializes an INSERT statement's literal rows into a batch
// in table-schema column order. Pure in the definition and statement: the
// cluster router uses it to split INSERTs client-side with the same result
// as a local execution.
func InsertBatch(def *catalog.TableDef, s *sqlparse.Insert) (*colstore.Batch, error) {
	cols := s.Columns
	if cols == nil {
		cols = make([]string, len(def.Schema))
		for i, c := range def.Schema {
			cols[i] = c.Name
		}
	}
	if len(cols) != len(def.Schema) {
		return nil, fmt.Errorf("vertica: INSERT must provide all %d columns", len(def.Schema))
	}
	// Map provided column order onto the table order.
	pos := make([]int, len(def.Schema))
	for i := range pos {
		pos[i] = -1
	}
	for provIdx, name := range cols {
		ti := def.Schema.ColIndex(name)
		if ti < 0 {
			return nil, fmt.Errorf("vertica: unknown column %q in INSERT", name)
		}
		pos[ti] = provIdx
	}
	for ti, p := range pos {
		if p < 0 {
			return nil, fmt.Errorf("vertica: INSERT missing column %q", def.Schema[ti].Name)
		}
	}
	b := colstore.NewBatch(def.Schema)
	for ri, row := range s.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("vertica: INSERT row %d has %d values, want %d", ri, len(row), len(cols))
		}
		vals := make([]any, len(def.Schema))
		for ti := range def.Schema {
			v, ok := sqlparse.Literal(row[pos[ti]])
			if !ok {
				return nil, fmt.Errorf("vertica: INSERT values must be literals (row %d)", ri)
			}
			vals[ti] = v
		}
		if err := b.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return b, nil
}

var _ sqlexec.Database = (*DB)(nil)
