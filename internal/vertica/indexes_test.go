package vertica

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verticadr/internal/faults"
)

// indexedNodes counts segments of table carrying an index on col.
func indexedNodes(t *testing.T, db *DB, table, col string) int {
	t.Helper()
	segs, err := db.Segments(table)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range segs {
		if seg.Index(col) != nil {
			n++
		}
	}
	return n
}

// pointRows runs an indexable point query and returns the result rows
// rendered as strings (engine-agnostic equivalence check).
func pointRows(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	res, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, res.Len())
	for _, r := range res.Rows() {
		out = append(out, fmt.Sprint(r))
	}
	return out
}

func TestCreateDropIndexRoundTrip(t *testing.T) {
	db, err := Open(Config{Nodes: 3, BlockRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 200)); err != nil {
		t.Fatal(err)
	}
	before := pointRows(t, db, "SELECT id, x FROM m WHERE id = 137 ORDER BY id")
	epoch0 := db.CatalogEpoch()

	if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (id)"); err != nil {
		t.Fatal(err)
	}
	if db.CatalogEpoch() <= epoch0 {
		t.Fatal("CREATE INDEX did not bump the catalog epoch")
	}
	if got := db.Indexes(); len(got) != 1 || got[0] != (IndexDef{Name: "m_id", Table: "m", Column: "id"}) {
		t.Fatalf("index catalog = %+v", got)
	}
	if n := indexedNodes(t, db, "m", "id"); n != 3 {
		t.Fatalf("index attached on %d/3 nodes", n)
	}
	if got := pointRows(t, db, "SELECT id, x FROM m WHERE id = 137 ORDER BY id"); !equalStrings(got, before) {
		t.Fatalf("indexed point query %v != scan result %v", got, before)
	}

	// Error paths validate against the log-end catalog view.
	if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (x)"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate name on different column: %v", err)
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (id)"); err != nil {
		t.Fatalf("identical re-create should be tolerated: %v", err)
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX nope ON m (missing)"); err == nil {
		t.Fatal("index on unknown column accepted")
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX nope ON absent (id)"); err == nil {
		t.Fatal("index on unknown table accepted")
	}

	if err := db.ExecContext(context.Background(), "DROP INDEX m_id"); err != nil {
		t.Fatal(err)
	}
	if got := db.Indexes(); len(got) != 0 {
		t.Fatalf("index catalog after drop = %+v", got)
	}
	if n := indexedNodes(t, db, "m", "id"); n != 0 {
		t.Fatalf("index still attached on %d nodes after drop", n)
	}
	if err := db.ExecContext(context.Background(), "DROP INDEX m_id"); err == nil {
		t.Fatal("dropping a missing index accepted")
	}
	if got := pointRows(t, db, "SELECT id, x FROM m WHERE id = 137 ORDER BY id"); !equalStrings(got, before) {
		t.Fatalf("post-drop query %v != %v", got, before)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexMaintainedAcrossLoadsAndDroppedWithTable(t *testing.T) {
	db, err := Open(Config{Nodes: 2, BlockRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (id)"); err != nil {
		t.Fatal(err)
	}
	// Loads after CREATE INDEX must keep the tree covering every row.
	for i := 1; i <= 4; i++ {
		if err := db.Load("m", dBatch(t, i*1000, 50)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := db.Segments("m")
	if err != nil {
		t.Fatal(err)
	}
	for node, seg := range segs {
		tree := seg.Index("id")
		if tree == nil {
			t.Fatalf("node %d lost its index after loads", node)
		}
		if tree.Rows() != seg.Rows() {
			t.Fatalf("node %d index covers %d rows, segment has %d", node, tree.Rows(), seg.Rows())
		}
	}
	want := pointRows(t, db, "SELECT id, x FROM m WHERE id = 3007 ORDER BY id")
	if len(want) != 1 {
		t.Fatalf("expected the post-index row to be found, got %v", want)
	}

	// DROP TABLE clears the table's index catalog entries too.
	if err := db.ExecContext(context.Background(), "DROP TABLE m"); err != nil {
		t.Fatal(err)
	}
	if got := db.Indexes(); len(got) != 0 {
		t.Fatalf("index catalog survived DROP TABLE: %+v", got)
	}
}

// TestDurableIndexReplayRebuild crashes (without a checkpoint) after index
// DDL; recovery must replay the CREATE/DROP records and rebuild the trees
// from the recovered table data.
func TestDurableIndexReplayRebuild(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (id)"); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX m_x ON m (x)"); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), "DROP INDEX m_x"); err != nil {
		t.Fatal(err)
	}
	// Rows loaded after the DDL exercise replay ordering (create, then load).
	if err := db.Load("m", dBatch(t, 5000, 40)); err != nil {
		t.Fatal(err)
	}
	want := pointRows(t, db, "SELECT id, x FROM m WHERE id = 5017 ORDER BY id")
	db.Close()

	re := durableDB(t, dir)
	defer re.Close()
	if got := re.Indexes(); len(got) != 1 || got[0].Name != "m_id" {
		t.Fatalf("recovered index catalog = %+v", got)
	}
	if n := indexedNodes(t, re, "m", "id"); n != 3 {
		t.Fatalf("recovered index attached on %d/3 nodes", n)
	}
	if n := indexedNodes(t, re, "m", "x"); n != 0 {
		t.Fatalf("dropped index resurrected on %d nodes", n)
	}
	segs, _ := re.Segments("m")
	for node, seg := range segs {
		if tree := seg.Index("id"); tree.Rows() != seg.Rows() {
			t.Fatalf("node %d rebuilt index covers %d rows, segment has %d", node, tree.Rows(), seg.Rows())
		}
	}
	if got := pointRows(t, re, "SELECT id, x FROM m WHERE id = 5017 ORDER BY id"); !equalStrings(got, want) {
		t.Fatalf("recovered indexed query %v != pre-crash %v", got, want)
	}
}

// TestCheckpointPersistsIndexTrees verifies the .vidx fast path: a restart
// from a checkpoint loads the persisted trees, and a corrupted tree file
// silently falls back to rebuilding from segment data.
func TestCheckpointPersistsIndexTrees(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 120)); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (id)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := pointRows(t, db, "SELECT id, x FROM m WHERE id = 88 ORDER BY id")
	db.Close()

	// The image must contain one tree file per node.
	chks, err := filepath.Glob(filepath.Join(dir, "chk-*", "tables", "m", "node*.id.vidx"))
	if err != nil || len(chks) != 3 {
		t.Fatalf("checkpoint .vidx files = %v (%v)", chks, err)
	}

	re := durableDB(t, dir)
	if n := indexedNodes(t, re, "m", "id"); n != 3 {
		t.Fatalf("checkpoint restart attached index on %d/3 nodes", n)
	}
	if got := pointRows(t, re, "SELECT id, x FROM m WHERE id = 88 ORDER BY id"); !equalStrings(got, want) {
		t.Fatalf("post-checkpoint query %v != %v", got, want)
	}
	re.Close()
}

// TestCheckpointRestoreRebuildsDamagedIndexTrees: the index catalog entry in
// the checkpoint manifest is authoritative and the .vidx bytes are a cache.
// A tree file that is missing, or damaged anywhere, must be rebuilt from the
// segment on restart instead of failing recovery or serving a wrong index.
func TestCheckpointRestoreRebuildsDamagedIndexTrees(t *testing.T) {
	damage := map[string]func(path string) error{
		"deleted": os.Remove,
		"bit-flipped": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x10
			return os.WriteFile(path, data, 0o644)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db := durableDB(t, dir)
			createDTable(t, db, "m")
			if err := db.Load("m", dBatch(t, 0, 120)); err != nil {
				t.Fatal(err)
			}
			if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (id)"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			const q = "SELECT id, x FROM m WHERE id = %d ORDER BY id"
			want := make([][]string, 120)
			for id := range want {
				want[id] = pointRows(t, db, fmt.Sprintf(q, id))
			}
			db.Close()

			trees, err := filepath.Glob(filepath.Join(dir, "chk-*", "tables", "m", "node*.id.vidx"))
			if err != nil || len(trees) != 3 {
				t.Fatalf("checkpoint .vidx files = %v (%v)", trees, err)
			}
			if err := hurt(trees[0]); err != nil {
				t.Fatal(err)
			}

			re := durableDB(t, dir)
			defer re.Close()
			if n := indexedNodes(t, re, "m", "id"); n != 3 {
				t.Fatalf("index attached on %d/3 nodes", n)
			}
			segs, _ := re.Segments("m")
			for node, seg := range segs {
				if tree := seg.Index("id"); tree.Rows() != seg.Rows() {
					t.Fatalf("node %d index covers %d rows, segment has %d", node, tree.Rows(), seg.Rows())
				}
			}
			// Every key, so a tree that decoded but holds one wrong key or
			// row id cannot pass.
			for id := range want {
				if got := pointRows(t, re, fmt.Sprintf(q, id)); !equalStrings(got, want[id]) {
					t.Fatalf("id %d: restored query %v != %v", id, got, want[id])
				}
			}
		})
	}
}

// TestInjectedCrashMidIndexDDL is the acceptance crash suite for index DDL:
// a crash injected inside the WAL append or fsync of a CREATE/DROP INDEX
// burst must recover to exactly the acknowledged index catalog, with every
// surviving index consistent with its table.
func TestInjectedCrashMidIndexDDL(t *testing.T) {
	for _, site := range []string{faults.SiteWALAppend, faults.SiteWALFsync} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			db := durableDB(t, dir)
			createDTable(t, db, "m")
			if err := db.Load("m", dBatch(t, 0, 60)); err != nil {
				t.Fatal(err)
			}

			in := faults.New(11)
			in.MustArm(faults.Rule{Site: site, Kind: faults.Crash, EveryN: 3})
			faults.Install(in)
			for i := 0; i < 40; i++ {
				var err error
				switch i % 3 {
				case 0:
					err = db.ExecContext(context.Background(), fmt.Sprintf("CREATE INDEX ix%d ON m (id)", i))
				case 1:
					err = db.Load("m", dBatch(t, (i+1)*1000, 10))
				default:
					err = db.ExecContext(context.Background(), fmt.Sprintf("DROP INDEX ix%d", i-2))
				}
				if err != nil {
					break // the crash: everything after this is the dead process
				}
			}
			faults.Install(nil)
			// Acknowledged state, captured from the dying process's memory.
			wantIdx := db.Indexes()
			wantImage := tableImage(t, db, "m")
			db.Close()

			re := durableDB(t, dir)
			defer re.Close()
			gotIdx := re.Indexes()
			if len(gotIdx) != len(wantIdx) {
				t.Fatalf("recovered %d indexes, acked %d (%+v vs %+v)", len(gotIdx), len(wantIdx), gotIdx, wantIdx)
			}
			for i := range wantIdx {
				if gotIdx[i] != wantIdx[i] {
					t.Fatalf("recovered index %+v, acked %+v", gotIdx[i], wantIdx[i])
				}
			}
			if got := tableImage(t, re, "m"); !imagesEqual(wantImage, got) {
				t.Fatal("recovered table image differs after index-DDL crash")
			}
			// Every recovered index must cover its segment exactly.
			segs, _ := re.Segments("m")
			for _, d := range gotIdx {
				for node, seg := range segs {
					tree := seg.Index(d.Column)
					if tree == nil || tree.Rows() != seg.Rows() {
						t.Fatalf("index %q node %d inconsistent after crash at %s", d.Name, node, site)
					}
				}
			}
		})
	}
}

// TestRecoverInPlaceRedoKeepsIndexesExact: redo appends each replayed load to the
// head version in place (no clone per record), through the same Append that
// maintains the attached B-trees. After a checkpoint + many-record replay
// the index must cover every row and answer point and range probes exactly
// as it did before the crash — and exactly as a sequential scan does — and
// the first live commit after recovery must copy-on-write again.
func TestRecoverInPlaceRedoKeepsIndexesExact(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 150)); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), "CREATE INDEX m_id ON m (id)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Replayed on top of the checkpointed trees: loads that straddle block
	// seals, and an index created mid-log.
	for i := 0; i < 25; i++ {
		if err := db.Load("m", dBatch(t, 1000+13*i, 13)); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			if err := db.ExecContext(context.Background(), "CREATE INDEX m_x ON m (x)"); err != nil {
				t.Fatal(err)
			}
		}
	}
	probes := []string{
		"SELECT id, x FROM m WHERE id = 1017 ORDER BY id",
		"SELECT id, x FROM m WHERE id = 149 ORDER BY id",
		"SELECT id, x FROM m WHERE id >= 1300 AND id < 1320 ORDER BY id",
		"SELECT id, x FROM m WHERE id >= 140 AND id < 1010 ORDER BY id",
		"SELECT id, x FROM m WHERE x >= 32 AND x < 33 ORDER BY id",
		"SELECT count(*) FROM m",
	}
	var want [][]string
	for _, q := range probes {
		want = append(want, pointRows(t, db, q))
	}
	image := tableImage(t, db, "m")
	db.Close()

	re := durableDB(t, dir)
	defer re.Close()
	if info := re.RecoveryInfo(); info == nil || info.Replay.Records < 26 {
		t.Fatalf("recovery %+v: expected the loads and the index DDL to be replayed, not checkpointed", info)
	}
	if !imagesEqual(tableImage(t, re, "m"), image) {
		t.Fatal("table content after in-place redo differs from the pre-crash image")
	}
	segs, err := re.Segments("m")
	if err != nil {
		t.Fatal(err)
	}
	for node, seg := range segs {
		for _, col := range []string{"id", "x"} {
			if tree := seg.Index(col); tree == nil || tree.Rows() != seg.Rows() {
				t.Fatalf("node %d: index on %s missing or short of the segment's %d rows after redo", node, col, seg.Rows())
			}
		}
	}
	for i, q := range probes {
		if got := pointRows(t, re, q); !equalStrings(got, want[i]) {
			t.Fatalf("%s after redo: %v, before the crash %v", q, got, want[i])
		}
	}
	// A live commit after recovery publishes a new version: the segments a
	// reader already holds do not grow.
	before := make([]int, len(segs))
	for i, seg := range segs {
		before[i] = seg.Rows()
	}
	if err := re.Load("m", dBatch(t, 9000, 30)); err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		if seg.Rows() != before[i] {
			t.Fatalf("node %d: a held segment grew from %d to %d rows under a live commit", i, before[i], seg.Rows())
		}
	}
	// Without the indexes the same probes scan sequentially to the same rows.
	for _, name := range []string{"m_id", "m_x"} {
		if err := re.ExecContext(context.Background(), "DROP INDEX "+name); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range probes[:5] {
		if got := pointRows(t, re, q); !equalStrings(got, want[i]) {
			t.Fatalf("%s by sequential scan: %v, by index before the crash %v", q, got, want[i])
		}
	}
}
