package vertica

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"verticadr/internal/atomicfile"
	"verticadr/internal/colstore"
	"verticadr/internal/colstore/index"
	"verticadr/internal/verr"
)

// Secondary-index DDL. An index is a per-node B-tree over one column
// (internal/colstore/index), attached to the table's published segment
// versions. DDL rides the table's commit stream through the write-ahead
// protocol: the record is durable before any segment version carries the
// index, recovery replays the record by rebuilding from table data, and
// checkpoints persist the trees themselves (.vidx files) so a restart from
// a checkpoint skips the rebuild.

// IndexDef describes one secondary index in the catalog.
type IndexDef struct {
	Name   string
	Table  string
	Column string
}

// Indexes lists the secondary-index catalog, sorted by index name.
func (db *DB) Indexes() []IndexDef {
	db.mu.RLock()
	out := make([]IndexDef, 0, len(db.indexes))
	for _, d := range db.indexes {
		out = append(out, d)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (db *DB) indexMeta(name string) (IndexDef, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	d, ok := db.indexes[name]
	return d, ok
}

// CatalogEpoch is a counter bumped by every DDL apply (CREATE/DROP TABLE,
// CREATE/DROP INDEX). The serving layer folds it into plan-cache keys, so
// any DDL invalidates cached physical plans instead of letting them run
// against access paths that no longer exist.
func (db *DB) CatalogEpoch() uint64 { return db.epoch.Load() }

// CreateIndex builds a B-tree index on table(column) across every node's
// segment and registers it under name, through the write-ahead protocol.
func (db *DB) CreateIndex(name, table, column string) error {
	return db.commit(table,
		func(st *streamState, durable bool) (byte, []byte, error) {
			db.seedTable(st, table)
			if !st.exists {
				return 0, nil, fmt.Errorf("vertica: %w: %q", verr.ErrTableNotFound, table)
			}
			if st.schema.ColIndex(column) < 0 {
				return 0, nil, fmt.Errorf("vertica: index on unknown column %q of %q", column, table)
			}
			if d, ok := db.indexMeta(name); ok && (d.Table != table || d.Column != column) {
				return 0, nil, fmt.Errorf("vertica: index %q already exists on %s(%s)", name, d.Table, d.Column)
			}
			if !durable {
				return 0, nil, nil
			}
			return recCreateIndex, encodeIndexDDL(name, table, column), nil
		},
		func() error { return db.applyCreateIndex(name, table, column) })
}

// applyCreateIndex publishes a new table version whose segments carry the
// index. The build runs on clones (copy-on-write), so pinned snapshots and
// in-flight scans keep reading the index-free versions. Re-creating an
// identical index rebuilds it without error — the tolerance keeps every
// logged record replayable even if a raced duplicate slipped into the log.
func (db *DB) applyCreateIndex(name, table, column string) error {
	cur, ok := db.store.Latest(table)
	if !ok {
		return fmt.Errorf("vertica: %w: table %q has no storage", verr.ErrTableNotFound, table)
	}
	next := make([]*colstore.Segment, len(cur))
	for i, seg := range cur {
		c := seg.Clone()
		if err := c.BuildIndex(column); err != nil {
			return err
		}
		next[i] = c
	}
	db.store.Put(table, next)
	db.mu.Lock()
	db.indexes[name] = IndexDef{Name: name, Table: table, Column: column}
	db.mu.Unlock()
	db.epoch.Add(1)
	return nil
}

// DropIndex removes the named index from the catalog and from every
// segment, through the write-ahead protocol.
func (db *DB) DropIndex(name string) error {
	d, ok := db.indexMeta(name)
	if !ok {
		return fmt.Errorf("vertica: index %q does not exist", name)
	}
	return db.commit(d.Table,
		func(st *streamState, durable bool) (byte, []byte, error) {
			db.seedTable(st, d.Table)
			if !durable {
				return 0, nil, nil
			}
			return recDropIndex, encodeIndexDDL(name, d.Table, d.Column), nil
		},
		func() error { return db.applyDropIndex(name, d.Table, d.Column) })
}

// applyDropIndex detaches the index. Missing tables or already-dropped
// indexes are tolerated so replay never aborts on a record whose table a
// later record drops.
func (db *DB) applyDropIndex(name, table, column string) error {
	if cur, ok := db.store.Latest(table); ok {
		next := make([]*colstore.Segment, len(cur))
		for i, seg := range cur {
			c := seg.Clone()
			c.DropIndex(column)
			next[i] = c
		}
		db.store.Put(table, next)
	}
	db.mu.Lock()
	delete(db.indexes, name)
	db.mu.Unlock()
	db.epoch.Add(1)
	return nil
}

// dropTableIndexMeta clears index catalog entries for a dropped table
// (caller must not hold db.mu).
func (db *DB) dropTableIndexMeta(table string) {
	db.mu.Lock()
	for n, d := range db.indexes {
		if d.Table == table {
			delete(db.indexes, n)
		}
	}
	db.mu.Unlock()
}

// vidxFile names the persisted tree of one (table, column, node) index
// inside a checkpoint image's table directory.
func vidxFile(node int, column string) string {
	return fmt.Sprintf("node%d.%s.vidx", node, column)
}

// persistIndexes writes the checkpointed trees of every index on the given
// table, crash-atomically, next to the segment files.
func (db *DB) persistIndexes(dir, table string, segs []*colstore.Segment, idxs []IndexDef) error {
	for _, d := range idxs {
		if d.Table != table {
			continue
		}
		for node, seg := range segs {
			tree := seg.Index(d.Column)
			if tree == nil {
				// The pinned version predates the index (checkpoint raced a
				// CREATE INDEX); recovery will rebuild from the log instead.
				continue
			}
			// The tree encoding carries no checksum of its own; the CRC32
			// trailer lets restoreIndexes tell a damaged file from a tree
			// that merely decodes.
			data := tree.Encode()
			data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
			if err := atomicfile.WriteFile(filepath.Join(dir, vidxFile(node, d.Column)), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadTree reads one checkpointed tree; nil when the file is absent, fails
// its checksum or does not decode.
func loadTree(path string) *index.Tree {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < 4 {
		return nil
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil
	}
	tree, err := index.DecodeTree(body)
	if err != nil {
		return nil
	}
	return tree
}

// restoreIndexes reattaches checkpointed trees to a just-loaded table's
// segments and registers the catalog entries. A missing, checksum-failing,
// undecodable or row-count-mismatched .vidx falls back to rebuilding the tree
// from the segment — the index catalog entry is authoritative, the tree bytes
// are a cache.
func (db *DB) restoreIndexes(dir string, idxs []persistedIndex, table string, segs []*colstore.Segment) error {
	for _, pi := range idxs {
		if pi.Table != table {
			continue
		}
		for node, seg := range segs {
			tree := loadTree(filepath.Join(dir, vidxFile(node, pi.Column)))
			if tree != nil && seg.SetIndex(pi.Column, tree) == nil {
				continue
			}
			if err := seg.BuildIndex(pi.Column); err != nil {
				return fmt.Errorf("vertica: rebuild index %q on %s(%s) node %d: %w", pi.Name, pi.Table, pi.Column, node, err)
			}
		}
		db.mu.Lock()
		db.indexes[pi.Name] = IndexDef{Name: pi.Name, Table: pi.Table, Column: pi.Column}
		db.mu.Unlock()
		db.epoch.Add(1)
	}
	return nil
}
