package vertica

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/faults"
)

// TestPipelinedLoadsBesideTableAndIndexDDL: durable COPYs on one table,
// three at a time, while another goroutine creates and drops indexes on it
// and drops and re-creates it. Each build starts from the segments at the
// log end, which may hold a logged but unpublished index DDL, CREATE TABLE
// or COPY. Every acknowledged load that began after the last CREATE TABLE
// returned is visible whole, no load acknowledged before the last DROP TABLE
// began is, and every other one is visible whole or not at all; the indexes
// are those the last DDL left, each tree the one a bulk build makes; and a
// reopen replays to the live segments' Persist bytes and trees.
func TestPipelinedLoadsBesideTableAndIndexDDL(t *testing.T) {
	const create = "CREATE TABLE p (id INTEGER, x FLOAT, s VARCHAR) SEGMENTED BY HASH(id)"
	dir := t.TempDir()
	db := durable4(t, dir)
	ctx := context.Background()
	if err := db.ExecContext(ctx, create); err != nil {
		t.Fatal(err)
	}
	const loaders, rowsPer = 3, 40
	batch := func(first int64) *colstore.Batch {
		b := colstore.NewBatchCap(colstore.Schema{
			{Name: "id", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64}, {Name: "s", Type: colstore.TypeString},
		}, rowsPer)
		for id := first; id < first+rowsPer; id++ {
			b.Cols[0].Ints = append(b.Cols[0].Ints, id)
			b.Cols[1].Floats = append(b.Cols[1].Floats, float64(id%97)/8)
			b.Cols[2].Strs = append(b.Cols[2].Strs, fmt.Sprintf("s%d", id%7))
		}
		return b
	}

	// clock orders the events the classification needs: a load's start and
	// acknowledgement, the last DROP TABLE's start, the last CREATE's return.
	var clock atomic.Int64
	type load struct {
		first, start, acked int64
		acknowledged        bool
		total               int
	}
	loads := make([][]load, loaders)
	ddlDone := make(chan struct{})
	var lastDrop, lastCreate int64
	var wg sync.WaitGroup
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			extra := 4 // loads after the DDL script ends
			for i := 0; ; i++ {
				b := batch(int64((i*loaders + w) * rowsPer))
				l := load{first: b.Cols[0].Ints[0], start: clock.Add(1), total: b.Len()}
				l.acknowledged = db.Load("p", b) == nil
				l.acked = clock.Add(1)
				loads[w] = append(loads[w], l)
				select {
				case <-ddlDone:
					if extra--; extra == 0 {
						return
					}
				default:
				}
			}
		}()
	}
	script := []string{
		"CREATE INDEX p_id ON p (id)", "CREATE INDEX p_x ON p (x)", "DROP INDEX p_id",
		"DROP TABLE p", create, "CREATE INDEX p_s ON p (s)", "DROP INDEX p_s",
		"CREATE INDEX p_id ON p (id)", "DROP TABLE p", create,
		"CREATE INDEX p_x ON p (x)", "CREATE INDEX p_id ON p (id)", "DROP INDEX p_x",
	}
	for _, sql := range script {
		time.Sleep(2 * time.Millisecond) // let loads queue between the statements
		start := clock.Add(1)
		if err := db.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		switch sql {
		case "DROP TABLE p":
			lastDrop = start
		case create:
			lastCreate = clock.Add(1)
		}
	}
	close(ddlDone)
	wg.Wait()

	segs, err := db.Segments("p")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	rows := 0
	for _, seg := range segs {
		b, err := seg.ReadAll([]string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range b.Cols[0].Ints {
			seen[id/rowsPer*rowsPer]++
		}
		rows += b.Len()
	}
	want, after := 0, 0
	for _, ls := range loads {
		for _, l := range ls {
			n := seen[l.first]
			switch {
			case n != 0 && n != l.total:
				t.Fatalf("load of ids from %d is visible in part: %d of %d rows", l.first, n, l.total)
			case n > 0 && !l.acknowledged:
				t.Fatalf("load of ids from %d failed but is visible", l.first)
			case l.acknowledged && l.start > lastCreate && n == 0:
				t.Fatalf("load of ids from %d, acknowledged after the last CREATE, is not visible", l.first)
			case l.acked < lastDrop && n > 0:
				t.Fatalf("load of ids from %d, acknowledged before the last DROP, survived it", l.first)
			}
			want += n
			if l.start > lastCreate {
				after++
			}
		}
	}
	if rows != want || after == 0 {
		t.Fatalf("%d rows visible, %d from whole acknowledged loads; %d loads after the last CREATE", rows, want, after)
	}

	if got := db.Indexes(); len(got) != 1 || got[0] != (IndexDef{Name: "p_id", Table: "p", Column: "id"}) {
		t.Fatalf("indexes %v, want p_id on p(id) alone", got)
	}
	for node, seg := range segs {
		if seg.Index("x") != nil || seg.Index("s") != nil {
			t.Fatalf("node %d keeps a dropped index", node)
		}
		bulk := seg.Clone()
		bulk.DropIndex("id")
		if err := bulk.BuildIndex("id"); err != nil {
			t.Fatal(err)
		}
		live := seg.Index("id")
		if live == nil || string(live.Encode()) != string(bulk.Index("id").Encode()) {
			t.Fatalf("node %d: the id tree differs from a bulk build over the node's rows", node)
		}
	}

	before := stateHashes(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := durable4(t, dir)
	defer re.Close()
	if got := stateHashes(t, re); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("reopened state differs from the live one:\n%v\n%v", got, before)
	}
}

// TestFailedFsyncLoadNeverVisible: a load's build runs while its record is
// written and fsynced, at the log end, so it exists before the fsync fails.
// No snapshot sees it then or afterwards, the load fails, and a reopen
// holds exactly the acknowledged rows.
func TestFailedFsyncLoadNeverVisible(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	createDTable(t, db, "m")
	if err := db.Load("m", dBatch(t, 0, 10)); err != nil {
		t.Fatal(err)
	}
	want := tableImage(t, db, "m")
	doomed := dBatch(t, 1000, 20)

	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteWALFsync, Kind: faults.Delay, EveryN: 1, Delay: 20 * time.Millisecond})
	in.MustArm(faults.Rule{Site: faults.SiteWALFsync, Kind: faults.Error, EveryN: 1})
	faults.Install(in)
	defer faults.Install(nil)
	done := make(chan error, 1)
	go func() { done <- db.Load("m", doomed) }()

	// The build has run once the stream's log-end segments hold its rows.
	c := db.committer("m")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		built := 0
		for _, seg := range c.state.segs {
			built += seg.Rows()
		}
		c.mu.Unlock()
		if built == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the load's build never showed at the log end (%d rows there)", built)
		}
	}
	visible := func(when string) {
		t.Helper()
		view, release := db.View()
		defer release()
		segs, err := view.Segments("m")
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			b, err := seg.ReadAll(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range b.Cols[0].Ints {
				if id >= 1000 {
					t.Fatalf("%s: a snapshot sees row %d of the unsynced load", when, id)
				}
			}
		}
		if got := tableImage(t, db, "m"); !imagesEqual(got, want) {
			t.Fatalf("%s: the table differs from its acknowledged rows", when)
		}
	}
	visible("before the fsync failed")
	if err := <-done; err == nil {
		t.Fatal("a load whose fsync failed was acknowledged")
	}
	visible("after the fsync failed")
	if err := db.Load("m", dBatch(t, 2000, 5)); err == nil {
		t.Fatal("a load on a failed log was acknowledged")
	}
	visible("after the next load")
	faults.Install(nil)
	db.Close() //nolint:errcheck // the log failed: Close reports it

	re := durableDB(t, dir)
	defer re.Close()
	if got := tableImage(t, re, "m"); !imagesEqual(got, want) {
		t.Fatal("the reopened table differs from its acknowledged rows")
	}
}
