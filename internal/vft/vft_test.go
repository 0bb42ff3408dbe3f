package vft

import (
	"context"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/telemetry"
	"verticadr/internal/vertica"
)

func setup(t *testing.T, nodes, workers int) (*vertica.DB, *dr.Cluster, *Hub) {
	t.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: nodes, BlockRows: 128, UDFInstancesPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dr.Start(dr.Config{Workers: workers, InstancesPerWorker: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	hub := NewHub()
	if err := Register(db, hub); err != nil {
		t.Fatal(err)
	}
	return db, c, hub
}

func loadTestTable(t *testing.T, db *vertica.DB, rows int) {
	t.Helper()
	if err := db.ExecContext(context.Background(), `CREATE TABLE mytable (id INTEGER, a FLOAT, b FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeFloat64},
	}
	b := colstore.NewBatch(schema)
	for i := 0; i < rows; i++ {
		_ = b.AppendRow(int64(i), float64(i)*0.5, float64(i)*2)
	}
	if err := db.Load("mytable", b); err != nil {
		t.Fatal(err)
	}
}

func collectIDs(t *testing.T, frame interface {
	NPartitions() int
	Part(int) (*colstore.Batch, error)
}) []int64 {
	t.Helper()
	var ids []int64
	for i := 0; i < frame.NPartitions(); i++ {
		b, err := frame.Part(i)
		if err != nil {
			t.Fatal(err)
		}
		idx := b.Schema.ColIndex("id")
		ids = append(ids, b.Cols[idx].Ints...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func newFrameForTest(c *dr.Cluster, nparts int) (*darray.DFrame, error) {
	frame, err := darray.NewFrame(c, nparts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nparts; i++ {
		if err := frame.SetWorker(i, i%c.NumWorkers()); err != nil {
			return nil, err
		}
	}
	return frame, nil
}

func TestChunkRoundTrip(t *testing.T) {
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "n", Type: colstore.TypeInt64},
		{Name: "s", Type: colstore.TypeString},
	}
	b := colstore.NewBatch(schema)
	_ = b.AppendRow(1.5, int64(2), "hello")
	_ = b.AppendRow(-0.25, int64(-9), "")
	msg, err := EncodeChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChunk(msg, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Cols[0].Floats[1] != -0.25 || got.Cols[2].Strs[0] != "hello" {
		t.Fatalf("round trip = %+v", got)
	}
	// Wrong schema is rejected.
	if _, err := DecodeChunk(msg, schema[:2]); err == nil {
		t.Fatal("short schema should fail")
	}
	if _, err := DecodeChunk([]byte{}, schema); err == nil {
		t.Fatal("empty message should fail")
	}
	if _, err := DecodeChunk(msg[:3], schema); err == nil {
		t.Fatal("truncated message should fail")
	}
}

func TestQuickChunkRoundTrip(t *testing.T) {
	schema := colstore.Schema{{Name: "f", Type: colstore.TypeFloat64}}
	f := func(vals []float64) bool {
		b := &colstore.Batch{Schema: schema, Cols: []*colstore.Vector{colstore.FloatVector(vals)}}
		msg, err := EncodeChunk(b)
		if err != nil {
			return false
		}
		got, err := DecodeChunk(msg, schema)
		if err != nil || got.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if got.Cols[0].Floats[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadLocalityPreservesSegments(t *testing.T) {
	db, c, hub := setup(t, 4, 4)
	loadTestTable(t, db, 2000)
	frame, stats, err := LoadContext(context.Background(), db, c, hub, "mytable", []string{"id", "a", "b"}, PolicyLocality, 256)
	if err != nil {
		t.Fatal(err)
	}
	if frame.NPartitions() != 4 {
		t.Fatalf("nparts = %d", frame.NPartitions())
	}
	// Locality: partition i sizes equal node i's segment sizes.
	segSizes, _ := db.SegmentSizes("mytable")
	for i := 0; i < 4; i++ {
		rows, _, err := frame.PartitionSize(i)
		if err != nil {
			t.Fatal(err)
		}
		if rows != segSizes[i] {
			t.Fatalf("partition %d rows %d != segment %d", i, rows, segSizes[i])
		}
		if frame.WorkerOf(i) != i {
			t.Fatalf("partition %d on worker %d", i, frame.WorkerOf(i))
		}
	}
	// Every row arrived exactly once.
	ids := collectIDs(t, frame)
	if len(ids) != 2000 {
		t.Fatalf("got %d rows", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("missing/duplicated id %d (got %d)", i, id)
		}
	}
	if stats.Rows != 2000 || stats.Bytes == 0 || stats.Chunks == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Policy != PolicyLocality {
		t.Fatalf("policy = %q", stats.Policy)
	}
}

func TestLoadUniformBalances(t *testing.T) {
	db, c, hub := setup(t, 2, 4)
	loadSkewTable(t, db, 1200) // everything on node 1
	frame, stats, err := LoadContext(context.Background(), db, c, hub, "sk", nil, PolicyUniform, 50)
	if err != nil {
		t.Fatal(err)
	}
	if frame.NPartitions() != 4 {
		t.Fatalf("nparts = %d", frame.NPartitions())
	}
	sizes := stats.PartSizes
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 1200 {
		t.Fatalf("total rows %d, sizes %v", total, sizes)
	}
	// Uniform policy: each worker within 25% of even share despite the
	// fully skewed segmentation.
	for i, s := range sizes {
		if s < 200 || s > 400 {
			t.Fatalf("partition %d badly unbalanced: %v", i, sizes)
		}
	}
	ids := collectIDs(t, frame)
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row multiset broken at %d", i)
		}
	}
}

func TestLoadLocalityRequiresEqualCounts(t *testing.T) {
	db, c, hub := setup(t, 2, 3)
	loadTestTable(t, db, 100)
	if _, _, err := LoadContext(context.Background(), db, c, hub, "mytable", nil, PolicyLocality, 0); err == nil {
		t.Fatal("locality with unequal counts must fail")
	}
	// Uniform works regardless of relative counts (§3.2).
	frame, _, err := LoadContext(context.Background(), db, c, hub, "mytable", nil, PolicyUniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Rows() != 100 {
		t.Fatalf("rows = %d", frame.Rows())
	}
}

func TestLoadErrors(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	if _, _, err := LoadContext(context.Background(), db, c, hub, "missing", nil, PolicyLocality, 0); err == nil {
		t.Fatal("missing table should fail")
	}
	loadTestTable(t, db, 10)
	if _, _, err := LoadContext(context.Background(), db, c, hub, "mytable", []string{"zz"}, PolicyLocality, 0); err == nil {
		t.Fatal("bad column should fail")
	}
	if _, _, err := LoadContext(context.Background(), db, c, hub, "mytable", nil, "magic", 0); err == nil {
		t.Fatal("bad policy should fail")
	}
}

func TestHubSendValidation(t *testing.T) {
	_, c, hub := setup(t, 2, 2)
	if err := hub.Send("nope", 0, 0, nil, 0, 0); err == nil {
		t.Fatal("unknown session should fail")
	}
	_ = c
}

func TestExportUDFViaSQLDirect(t *testing.T) {
	// Drive the export UDF through a hand-written SQL statement, as the
	// paper's Fig. 4 shows, rather than through Load.
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 300)
	frame, err := newFrameForTest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := db.TableDef("mytable")
	schema, _ := def.Schema.Project([]string{"a", "b"})
	id := hub.open(frame, schema, PolicyLocality, hub)
	res, err := db.QueryContext(context.Background(), `SELECT ExportToDistributedR(a, b USING PARAMETERS session='`+id+`', policy='locality', psize=64, workers=2) OVER (PARTITION BEST) FROM mytable`)
	if err != nil {
		t.Fatal(err)
	}
	// One summary row per UDF instance, each on a valid node.
	if res.Len() == 0 {
		t.Fatal("export returned no summary rows")
	}
	stats, err := hub.finalize(context.Background(), id, c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 300 {
		t.Fatalf("transferred %d rows", stats.Rows)
	}
}

func TestExportUDFParamValidation(t *testing.T) {
	db, _, _ := setup(t, 1, 1)
	loadTestTable(t, db, 10)
	for _, q := range []string{
		`SELECT ExportToDistributedR(a USING PARAMETERS policy='locality', workers=1) OVER (PARTITION BEST) FROM mytable`,         // no session
		`SELECT ExportToDistributedR(a USING PARAMETERS session='s', policy='bad', workers=1) OVER (PARTITION BEST) FROM mytable`, // bad policy
		`SELECT ExportToDistributedR(a USING PARAMETERS session='s', policy='locality') OVER (PARTITION BEST) FROM mytable`,       // no workers
		`SELECT ExportToDistributedR(USING PARAMETERS session='s', workers=1) OVER (PARTITION BEST) FROM mytable`,                 // no columns
	} {
		if _, err := db.QueryContext(context.Background(), q); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestLoadDeterministicOrder(t *testing.T) {
	// Two transfers of the same table must produce identical per-partition
	// row order (chunks are reassembled by deterministic sequence keys), so
	// separately loaded X and Y arrays stay row-aligned — the Figure 3
	// pattern of loading features and response in separate calls.
	db, c, hub := setup(t, 3, 3)
	loadTestTable(t, db, 3000)
	f1, _, err := LoadContext(context.Background(), db, c, hub, "mytable", []string{"id"}, PolicyLocality, 97)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := LoadContext(context.Background(), db, c, hub, "mytable", []string{"id"}, PolicyLocality, 97)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < f1.NPartitions(); p++ {
		b1, _ := f1.Part(p)
		b2, _ := f2.Part(p)
		if b1.Len() != b2.Len() {
			t.Fatalf("partition %d length differs", p)
		}
		for r := 0; r < b1.Len(); r++ {
			if b1.Cols[0].Ints[r] != b2.Cols[0].Ints[r] {
				t.Fatalf("partition %d row %d differs: %d vs %d",
					p, r, b1.Cols[0].Ints[r], b2.Cols[0].Ints[r])
			}
		}
	}
}

func TestStatsStringAndCounters(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 500)
	_, stats, err := LoadContext(context.Background(), db, c, hub, "mytable", nil, PolicyLocality, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 500 || stats.Chunks == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	// Locality policy: every chunk lands on its source node's worker.
	if stats.ChunksLocal != stats.Chunks {
		t.Fatalf("locality policy: %d/%d chunks local", stats.ChunksLocal, stats.Chunks)
	}
	if stats.Total <= 0 {
		t.Fatal("stats.Total not stamped")
	}
	s := stats.String()
	for _, want := range []string{"locality policy", "500 rows", "phase breakdown", "DB-side", "network", "conversion", "partition sizes", "total:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Stats.String() missing %q:\n%s", want, s)
		}
	}
	// In-process transfer has no network leg.
	if !strings.Contains(s, "0s (in-process)") {
		t.Fatalf("in-proc transfer should report zero network time:\n%s", s)
	}
	// The global registry accumulated the transfer.
	reg := telemetry.Default()
	if reg.Counter("vft_rows_total").Value() < 500 {
		t.Fatalf("vft_rows_total = %d, want >= 500", reg.Counter("vft_rows_total").Value())
	}
	if reg.Counter("vft_transfers_total", telemetry.L("policy", PolicyLocality)).Value() < 1 {
		t.Fatal("vft_transfers_total{policy=locality} not incremented")
	}
	if reg.Counter("vft_chunks_total", telemetry.L("locality", "local")).Value() < int64(stats.Chunks) {
		t.Fatal("vft_chunks_total{locality=local} under-counted")
	}
}
