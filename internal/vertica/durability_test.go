package vertica

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/faults"
)

func durableDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Config{Nodes: 3, Durable: true, DataDir: dir, BlockRows: 8, WALSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var dSchema = colstore.Schema{
	{Name: "id", Type: colstore.TypeInt64},
	{Name: "x", Type: colstore.TypeFloat64},
}

func createDTable(t *testing.T, db *DB, name string) {
	t.Helper()
	err := db.CreateTable(&catalog.TableDef{
		Name:   name,
		Schema: dSchema,
		Seg:    catalog.Segmentation{Kind: catalog.SegHash, Column: "id"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func dBatch(t *testing.T, base, n int) *colstore.Batch {
	t.Helper()
	b := colstore.NewBatch(dSchema)
	for i := 0; i < n; i++ {
		// Values with non-trivial float bit patterns, so byte-identity is a
		// real check and not just an integer round trip.
		if err := b.AppendRow(int64(base+i), math.Sqrt(float64(base+i))+1e-9); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// tableImage captures a table's exact per-node content as float bit patterns
// and int64s — the byte-identity view recovery is checked against.
func tableImage(t *testing.T, db *DB, name string) [][]uint64 {
	t.Helper()
	segs, err := db.Segments(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]uint64, len(segs))
	for node, seg := range segs {
		batch, err := seg.ReadAll(nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < batch.Len(); r++ {
			out[node] = append(out[node], uint64(batch.Cols[0].Ints[r]), math.Float64bits(batch.Cols[1].Floats[r]))
		}
	}
	return out
}

func imagesEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for n := range a {
		if len(a[n]) != len(b[n]) {
			return false
		}
		for i := range a[n] {
			if a[n][i] != b[n][i] {
				return false
			}
		}
	}
	return true
}

func TestDurableRecoverWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	for i := 0; i < 5; i++ {
		if err := db.Load("m", dBatch(t, i*100, 37)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ExecContext(context.Background(), `INSERT INTO m VALUES (9999, 0.5)`); err != nil {
		t.Fatal(err)
	}
	want := tableImage(t, db, "m")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := durableDB(t, dir)
	defer re.Close()
	if got := tableImage(t, re, "m"); !imagesEqual(want, got) {
		t.Fatal("recovered table differs from pre-crash image")
	}
	info := re.RecoveryInfo()
	if info == nil || info.Replay.Records == 0 || info.CheckpointLSN != 0 {
		t.Fatalf("recovery info wrong: %+v", info)
	}
	// The recovered database keeps working and recovers again.
	if err := re.Load("m", dBatch(t, 5000, 11)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointReplayAndLogTruncation(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	createDTable(t, db, "aux")
	for i := 0; i < 30; i++ {
		if err := db.Load("m", dBatch(t, i*50, 23)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropTable("aux"); err != nil {
		t.Fatal(err)
	}
	if err := db.JournalBlobPut("models/demo", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	lsn, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("checkpoint at lsn 0")
	}
	// Post-checkpoint mutations replay on top of the image.
	for i := 0; i < 5; i++ {
		if err := db.Load("m", dBatch(t, 10_000+i*50, 23)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.JournalBlobPut("models/demo", []byte{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	want := tableImage(t, db, "m")
	db.Close()

	re := durableDB(t, dir)
	defer re.Close()
	info := re.RecoveryInfo()
	if info.CheckpointLSN != lsn {
		t.Fatalf("recovered from checkpoint %d, want %d", info.CheckpointLSN, lsn)
	}
	if got := tableImage(t, re, "m"); !imagesEqual(want, got) {
		t.Fatal("checkpoint+replay image differs")
	}
	if _, err := re.Segments("aux"); err == nil {
		t.Fatal("dropped table resurrected by recovery")
	}
	data, err := re.DFS().Read("models/demo")
	if err != nil || string(data) != string([]byte{4, 5, 6}) {
		t.Fatalf("blob not recovered to latest version: %v %v", data, err)
	}
}

// Segments are per node, so a checkpoint image only reopens at the cluster
// size that wrote it.
func TestCheckpointReopenRejectsClusterSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Open(Config{Nodes: 5, Durable: true, DataDir: dir}); err == nil {
		t.Fatal("reopening a 3-node checkpoint with 5 nodes should fail")
	}
}

func TestInjectedCrashMidCopyRecoversEveryAcknowledgedCommit(t *testing.T) {
	for _, site := range []string{faults.SiteWALAppend, faults.SiteWALFsync} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			db := durableDB(t, dir)
			createDTable(t, db, "m")
			if err := db.Load("m", dBatch(t, 0, 10)); err != nil {
				t.Fatal(err)
			}
			acked := 1

			in := faults.New(7)
			in.MustArm(faults.Rule{Site: site, Kind: faults.Crash, EveryN: 5})
			faults.Install(in)
			for i := 1; i < 40; i++ {
				if err := db.Load("m", dBatch(t, i*100, 10)); err != nil {
					break // the crash: everything after this is the dead process
				}
				acked++
			}
			faults.Install(nil)
			// The acknowledged state, captured from the dying process's memory.
			want := tableImage(t, db, "m")
			db.Close()

			re := durableDB(t, dir)
			defer re.Close()
			got := tableImage(t, re, "m")
			if !imagesEqual(want, got) {
				t.Fatalf("recovered image differs after crash at %s (%d acked commits)", site, acked)
			}
			rows, err := re.TableRows("m")
			if err != nil || rows != acked*10 {
				t.Fatalf("recovered %d rows, want %d (acked commits %d)", rows, acked*10, acked)
			}
		})
	}
}

func TestInjectedCheckpointCrashKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("m", dBatch(t, 100, 20)); err != nil {
		t.Fatal(err)
	}
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteWALCheckpoint, Kind: faults.Crash, EveryN: 1})
	faults.Install(in)
	if _, err := db.Checkpoint(); err == nil {
		faults.Install(nil)
		t.Fatal("injected checkpoint crash not surfaced")
	}
	faults.Install(nil)
	want := tableImage(t, db, "m")
	db.Close()

	re := durableDB(t, dir)
	defer re.Close()
	if got := tableImage(t, re, "m"); !imagesEqual(want, got) {
		t.Fatal("recovery after failed checkpoint lost state")
	}
}

// TestSnapshotIsolationUnderConcurrentIngest is the acceptance scenario: a
// long SELECT overlapping COPYs and model redeploys returns one consistent
// snapshot. Each COPY commits rows sharing one commit id; every SELECT must
// observe complete commits only, and a monotonically growing prefix.
func TestSnapshotIsolationUnderConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	defer db.Close()
	createDTable(t, db, "m")

	const commits = 40
	const rowsPer = 9
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for c := 1; c <= commits; c++ {
			b := colstore.NewBatch(dSchema)
			for r := 0; r < rowsPer; r++ {
				if err := b.AppendRow(int64(c), float64(r)); err != nil {
					panic(err)
				}
			}
			if err := db.Load("m", b); err != nil {
				panic(err)
			}
		}
	}()
	// Concurrent blob churn (the Redeploy path) must not disturb readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			if err := db.JournalBlobPut("models/hot", []byte(fmt.Sprintf("v%d", v))); err != nil {
				panic(err)
			}
		}
	}()

	var torn atomic.Bool
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := db.QueryContext(context.Background(), `SELECT id, count(*) AS n FROM m GROUP BY id ORDER BY id`)
				if err != nil {
					t.Error(err)
					return
				}
				rows := res.Rows()
				for idx, r := range rows {
					id, n := r[0].(int64), r[1].(int64)
					if n != rowsPer || id != int64(idx+1) {
						torn.Store(true)
						t.Errorf("snapshot tore: id %d has %d rows (want %d), position %d", id, n, rowsPer, idx)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if torn.Load() {
		t.Fatal("snapshot isolation violated")
	}
	rows, err := db.TableRows("m")
	if err != nil || rows != commits*rowsPer {
		t.Fatalf("final count %d, want %d", rows, commits*rowsPer)
	}
}

func TestGroupCommitBatchesConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	defer db.Close()
	const tables = 8
	for i := 0; i < tables; i++ {
		createDTable(t, db, fmt.Sprintf("t%d", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < tables; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for c := 0; c < 10; c++ {
				if err := db.Load(fmt.Sprintf("t%d", i), dBatch(t, c*10, 5)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < tables; i++ {
		rows, err := db.TableRows(fmt.Sprintf("t%d", i))
		if err != nil || rows != 50 {
			t.Fatalf("table t%d has %d rows, want 50", i, rows)
		}
	}
}

func TestTornWALTailDiscardedByRecovery(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 25)); err != nil {
		t.Fatal(err)
	}
	want := tableImage(t, db, "m")
	db.Close()

	// Append garbage half-record bytes to the last WAL segment: the torn
	// tail a real crash mid-write leaves.
	walDir := filepath.Join(dir, walSubdir)
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			last = filepath.Join(walDir, e.Name())
		}
	}
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xEE, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := durableDB(t, dir)
	defer re.Close()
	if !re.RecoveryInfo().Replay.Torn {
		t.Fatal("torn tail not reported")
	}
	if got := tableImage(t, re, "m"); !imagesEqual(want, got) {
		t.Fatal("torn tail corrupted recovered state")
	}
	// Appends continue cleanly past the truncated tear.
	if err := re.Load("m", dBatch(t, 900, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestNonDurableUnaffected(t *testing.T) {
	db, err := Open(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if db.RecoveryInfo() != nil {
		t.Fatal("in-memory database claims recovery")
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint must require durable mode")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
