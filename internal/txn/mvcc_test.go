package txn

import (
	"fmt"
	"sync"
	"testing"

	"verticadr/internal/colstore"
)

var schema = colstore.Schema{
	{Name: "id", Type: colstore.TypeInt64},
	{Name: "v", Type: colstore.TypeFloat64},
}

func batch(t *testing.T, ids ...int64) *colstore.Batch {
	t.Helper()
	b := colstore.NewBatch(schema)
	for _, id := range ids {
		if err := b.AppendRow(id, float64(id)/2); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func seg(t *testing.T, ids ...int64) *colstore.Segment {
	t.Helper()
	s := colstore.NewSegment(schema, 4)
	if len(ids) > 0 {
		if err := s.Append(batch(t, ids...)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func readIDs(t *testing.T, segs []*colstore.Segment) []int64 {
	t.Helper()
	var out []int64
	for _, s := range segs {
		b, err := s.ReadAll([]string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Cols[0].Ints...)
	}
	return out
}

func TestSnapshotSeesFrozenState(t *testing.T) {
	st := NewStore()
	st.Put("t", []*colstore.Segment{seg(t, 1, 2, 3)})
	sn := st.Snapshot()
	defer sn.Release()

	// Commit more rows via copy-on-write, the way the write path does.
	cur, _ := st.Latest("t")
	next := cur[0].Clone()
	if err := next.Append(batch(t, 4, 5)); err != nil {
		t.Fatal(err)
	}
	st.Put("t", []*colstore.Segment{next})

	old, ok := sn.Segments("t")
	if !ok {
		t.Fatal("snapshot lost the table")
	}
	if got := readIDs(t, old); len(got) != 3 {
		t.Fatalf("snapshot sees %v, want the original 3 rows", got)
	}
	sn2 := st.Snapshot()
	defer sn2.Release()
	cur2, _ := sn2.Segments("t")
	if got := readIDs(t, cur2); len(got) != 5 {
		t.Fatalf("fresh snapshot sees %v, want 5 rows", got)
	}
}

func TestDropVisibility(t *testing.T) {
	st := NewStore()
	st.Put("t", []*colstore.Segment{seg(t, 1)})
	before := st.Snapshot()
	defer before.Release()
	st.Drop("t")
	after := st.Snapshot()
	defer after.Release()

	if _, ok := before.Segments("t"); !ok {
		t.Fatal("pre-drop snapshot must still read the table")
	}
	if _, ok := after.Segments("t"); ok {
		t.Fatal("post-drop snapshot must not see the table")
	}
	if _, ok := st.Latest("t"); ok {
		t.Fatal("Latest must not return a dropped table")
	}
	if got := before.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("pre-drop Tables = %v", got)
	}
	if got := after.Tables(); len(got) != 0 {
		t.Fatalf("post-drop Tables = %v", got)
	}
}

func TestGCPrunesPastOldestSnapshot(t *testing.T) {
	st := NewStore()
	st.Put("t", []*colstore.Segment{seg(t, 0)})
	sn := st.Snapshot()
	for i := 1; i <= 10; i++ {
		st.Put("t", []*colstore.Segment{seg(t, int64(i))})
	}
	// The pinned snapshot holds version 1 alive, plus the 10 newer ones.
	if n := versionCount(st, "t"); n != 11 {
		t.Fatalf("with snapshot pinned: %d versions, want 11", n)
	}
	sn.Release()
	sn.Release() // idempotent
	// A fresh commit triggers GC with no snapshots: only the head survives
	// (plus the commit itself).
	st.Put("t", []*colstore.Segment{seg(t, 99)})
	if n := versionCount(st, "t"); n != 1 {
		t.Fatalf("after release: %d versions, want 1", n)
	}
	if len(st.snaps) != 0 {
		t.Fatal("refcount leak")
	}
}

func TestDroppedTableFullyCollected(t *testing.T) {
	st := NewStore()
	st.Put("t", []*colstore.Segment{seg(t, 1)})
	st.Drop("t")
	st.Put("other", nil) // advance + GC
	if n := versionCount(st, "t"); n != 0 {
		t.Fatalf("tombstone not collected: %d versions", n)
	}
}

func TestCloneIsolation(t *testing.T) {
	// Appending to a clone must not leak into the published original, even
	// across seal boundaries (shared sealed slices, deep-copied tail).
	orig := seg(t, 1, 2, 3, 4, 5) // blockRows=4: one sealed block + tail [5]
	cl := orig.Clone()
	if err := cl.Append(batch(t, 6, 7, 8, 9, 10)); err != nil { // forces seal on the clone
		t.Fatal(err)
	}
	if got := readIDs(t, []*colstore.Segment{orig}); fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("original mutated by clone append: %v", got)
	}
	if got := readIDs(t, []*colstore.Segment{cl}); fmt.Sprint(got) != "[1 2 3 4 5 6 7 8 9 10]" {
		t.Fatalf("clone rows wrong: %v", got)
	}
	if err := orig.Append(batch(t, 11)); err != nil {
		t.Fatal(err)
	}
	if got := readIDs(t, []*colstore.Segment{cl}); fmt.Sprint(got) != "[1 2 3 4 5 6 7 8 9 10]" {
		t.Fatalf("clone mutated by original append: %v", got)
	}
}

// TestSnapshotConsistencyUnderConcurrentCommits is the core isolation
// property: writers commit batches tagged with a commit id; any snapshot
// must observe a contiguous prefix of commit ids with every id's rows
// all-or-nothing. Run with -race.
func TestSnapshotConsistencyUnderConcurrentCommits(t *testing.T) {
	const commits = 60
	const rowsPer = 7
	st := NewStore()
	st.Put("t", []*colstore.Segment{colstore.NewSegment(schema, 8)})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer thread (the DB serializes commits per table)
		defer wg.Done()
		for c := 1; c <= commits; c++ {
			cur, _ := st.Latest("t")
			next := cur[0].Clone()
			b := colstore.NewBatch(schema)
			for r := 0; r < rowsPer; r++ {
				if err := b.AppendRow(int64(c), float64(r)); err != nil {
					panic(err)
				}
			}
			if err := next.Append(b); err != nil {
				panic(err)
			}
			st.Put("t", []*colstore.Segment{next})
		}
	}()

	var rg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 40; i++ {
				sn := st.Snapshot()
				segs, ok := sn.Segments("t")
				if !ok {
					sn.Release()
					continue
				}
				counts := map[int64]int{}
				var maxID int64
				for _, s := range segs {
					b, err := s.ReadAll([]string{"id"})
					if err != nil {
						t.Error(err)
						sn.Release()
						return
					}
					for _, id := range b.Cols[0].Ints {
						counts[id]++
						if id > maxID {
							maxID = id
						}
					}
				}
				sn.Release()
				// All-or-nothing per commit and a contiguous id prefix.
				for c := int64(1); c <= maxID; c++ {
					if counts[c] != rowsPer {
						t.Errorf("snapshot tore commit %d: saw %d of %d rows (max id %d)", c, counts[c], rowsPer, maxID)
						return
					}
				}
			}
		}()
	}
	rg.Wait()
	wg.Wait()
	sn := st.Snapshot()
	defer sn.Release()
	segs, _ := sn.Segments("t")
	if got := readIDs(t, segs); len(got) != commits*rowsPer {
		t.Fatalf("final state has %d rows, want %d", len(got), commits*rowsPer)
	}
}

// versionCount is the live version-chain length of table name (0 when
// absent).
func versionCount(s *Store, name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tables[name]; t != nil {
		return len(t.versions)
	}
	return 0
}
