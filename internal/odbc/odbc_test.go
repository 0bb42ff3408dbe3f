package odbc

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/dr"
	"verticadr/internal/faults"
	"verticadr/internal/vertica"
)

func setup(t *testing.T, nodes int, rows int) (*vertica.DB, *Server) {
	t.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: nodes, BlockRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `CREATE TABLE t (id INTEGER, x FLOAT, s VARCHAR, ok BOOLEAN) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString},
		{Name: "ok", Type: colstore.TypeBool},
	}
	b := colstore.NewBatch(schema)
	for i := 0; i < rows; i++ {
		_ = b.AppendRow(int64(i), float64(i)*1.5, "s|tr\\ing\n", i%2 == 0)
	}
	if err := db.Load("t", b); err != nil {
		t.Fatal(err)
	}
	return db, NewServer(db, 0)
}

func TestQueryRangeFull(t *testing.T) {
	db, srv := setup(t, 3, 500)
	_ = db
	conn := Connect(srv)
	b, err := conn.QueryRange("t", nil, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 500 {
		t.Fatalf("got %d rows", b.Len())
	}
	// All ids present exactly once; escaped strings survive.
	ids := append([]int64(nil), b.Cols[0].Ints...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("id multiset broken at %d: %d", i, id)
		}
	}
	if b.Cols[2].Strs[0] != "s|tr\\ing\n" {
		t.Fatalf("string round trip = %q", b.Cols[2].Strs[0])
	}
}

func TestQueryRangeSlices(t *testing.T) {
	_, srv := setup(t, 3, 300)
	conn := Connect(srv)
	var all []int64
	for off := 0; off < 300; off += 100 {
		b, err := conn.QueryRange("t", []string{"id"}, off, 100)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != 100 {
			t.Fatalf("slice at %d has %d rows", off, b.Len())
		}
		all = append(all, b.Cols[0].Ints...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, id := range all {
		if id != int64(i) {
			t.Fatalf("slices don't cover table exactly once (at %d: %d)", i, id)
		}
	}
}

func TestQueryRangePastEnd(t *testing.T) {
	_, srv := setup(t, 2, 50)
	conn := Connect(srv)
	b, err := conn.QueryRange("t", []string{"id"}, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 10 {
		t.Fatalf("got %d rows past end", b.Len())
	}
	b, err = conn.QueryRange("t", []string{"id"}, 500, 10)
	if err != nil || b.Len() != 0 {
		t.Fatalf("far past end: %d rows, %v", b.Len(), err)
	}
}

func TestQueryErrors(t *testing.T) {
	_, srv := setup(t, 2, 10)
	conn := Connect(srv)
	if _, err := conn.QueryRange("missing", nil, 0, 1); err == nil {
		t.Fatal("missing table should fail")
	}
	if _, err := conn.QueryRange("t", []string{"zz"}, 0, 1); err == nil {
		t.Fatal("missing column should fail")
	}
}

// peakDB counts the range queries inside a Server's slots: each holds
// Segments a moment, so queries that share the slots overlap there.
type peakDB struct {
	*vertica.DB
	active, peak atomic.Int32
}

func (d *peakDB) Segments(name string) ([]*colstore.Segment, error) {
	n := d.active.Add(1)
	defer d.active.Add(-1)
	for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
	}
	time.Sleep(2 * time.Millisecond)
	return d.DB.Segments(name)
}

func TestConnectionPoolBounds(t *testing.T) {
	vdb, _ := setup(t, 2, 2000)
	db := &peakDB{DB: vdb}
	srv := NewServer(db, 3)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := Connect(srv)
			if _, err := conn.QueryRange("t", []string{"id"}, i*100, 100); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if p := db.peak.Load(); p > 3 {
		t.Fatalf("pool bound violated: peak %d", p)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{"", "plain", "a|b", `back\slash`, "new\nline", `mix|\n|`}
	for _, s := range cases {
		if got := unescape(escape(s)); got != s {
			t.Fatalf("escape round trip %q -> %q", s, got)
		}
	}
}

func TestLoadIntoDistributedFrame(t *testing.T) {
	db, srv := setup(t, 3, 1200)
	c, err := dr.Start(dr.Config{Workers: 3, InstancesPerWorker: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	frame, err := LoadContext(context.Background(), db, srv, c, "t", []string{"id", "x"}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if frame.NPartitions() != 12 {
		t.Fatalf("nparts = %d", frame.NPartitions())
	}
	if frame.Rows() != 1200 {
		t.Fatalf("rows = %d", frame.Rows())
	}
	// Each connection got an even slice (ordered range requests).
	for i := 0; i < 12; i++ {
		rows, _, err := frame.PartitionSize(i)
		if err != nil || rows != 100 {
			t.Fatalf("partition %d rows %d err %v", i, rows, err)
		}
	}
	var ids []int64
	for i := 0; i < 12; i++ {
		b, _ := frame.Part(i)
		ids = append(ids, b.Cols[0].Ints...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("load multiset broken at %d", i)
		}
	}
}

func TestLoadDefaultConnections(t *testing.T) {
	db, srv := setup(t, 2, 240)
	c, _ := dr.Start(dr.Config{Workers: 2, InstancesPerWorker: 3})
	defer c.Shutdown()
	frame, err := LoadContext(context.Background(), db, srv, c, "t", []string{"id"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Default: workers * instances connections, like Distributed R spawning
	// one ODBC connection per R instance.
	if frame.NPartitions() != 6 {
		t.Fatalf("nparts = %d", frame.NPartitions())
	}
}

func TestLoadErrors(t *testing.T) {
	db, srv := setup(t, 2, 10)
	c, _ := dr.Start(dr.Config{Workers: 2})
	defer c.Shutdown()
	if _, err := LoadContext(context.Background(), db, srv, c, "missing", nil, 2); err == nil {
		t.Fatal("missing table should fail")
	}
}

// TestLoadRetriesInjectedQueryFaults arms odbc.query failures and checks the
// per-connection reconnect loop absorbs them: the load succeeds, every row
// arrives exactly once, and retries are counted.
func TestLoadRetriesInjectedQueryFaults(t *testing.T) {
	in := faults.New(9)
	in.MustArm(faults.Rule{Site: faults.SiteODBCQuery, Kind: faults.Error, EveryN: 3})
	faults.Install(in)
	defer faults.Install(nil)

	db, srv := setup(t, 2, 600)
	c, err := dr.Start(dr.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	retries0 := mRetries.Value()
	frame, err := LoadContext(context.Background(), db, srv, c, "t", []string{"id"}, 6)
	if err != nil {
		t.Fatalf("load under query faults should recover: %v", err)
	}
	if frame.Rows() != 600 {
		t.Fatalf("rows = %d", frame.Rows())
	}
	var ids []int64
	for p := 0; p < frame.NPartitions(); p++ {
		b, err := frame.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b.Cols[0].Ints...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row %d missing or duplicated (got %d)", i, id)
		}
	}
	if mRetries.Value() == retries0 {
		t.Fatal("no retries recorded despite armed query faults")
	}
}

// TestLoadGivesUpAfterRetryBudget: a row-stream fault armed on every visit
// outlasts the retry cap and surfaces to the caller.
func TestLoadGivesUpAfterRetryBudget(t *testing.T) {
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteODBCRow, Kind: faults.Error, EveryN: 1})
	faults.Install(in)
	defer faults.Install(nil)

	db, srv := setup(t, 2, 100)
	c, err := dr.Start(dr.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := LoadContext(context.Background(), db, srv, c, "t", nil, 2); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected failure after retries exhausted", err)
	}
}
