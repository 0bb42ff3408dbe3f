package server

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/sqlexec"
	"verticadr/internal/vft"
)

// fetchSQL is the repository benchmark's fetch statement
// (benchmark/deploy.go), verbatim: the serving model over all of events,
// every score to the client.
const fetchSQL = `SELECT GlmPredict(x0, x1, x2, x3 USING PARAMETERS model='m4') OVER (PARTITION BEST) FROM events`

// fetchServer builds what fetchSQL runs over on the benchmark's serve_single
// deployment — 4 nodes, events of rows rows in the benchmark's shape (the
// features multiples of 2^-10), the serving model m4 — and prepares it as
// "fetch".
func fetchServer(tb testing.TB, rows int) *Server {
	tb.Helper()
	s, err := core.Start(core.Config{DBNodes: 4, DRWorkers: 4, InstancesPerWorker: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	ctx := context.Background()
	if err := s.ExecContext(ctx, `CREATE TABLE events (id INTEGER, k INTEGER, dim_id INTEGER, grp INTEGER, region VARCHAR, x0 FLOAT, x1 FLOAT, x2 FLOAT, x3 FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		tb.Fatal(err)
	}
	def, err := s.DB.TableDef("events")
	if err != nil {
		tb.Fatal(err)
	}
	b := colstore.NewBatchCap(def.Schema, rows)
	rng := rand.New(rand.NewSource(1))
	regions := []string{"amer", "apac", "emea", "latam", "mena", "nordic", "oceania", "ssa"}
	for i := 0; i < rows; i++ {
		c := b.Cols
		c[0].Ints = append(c[0].Ints, int64(i))
		c[1].Ints = append(c[1].Ints, int64(i)*2654435761%int64(rows))
		c[2].Ints = append(c[2].Ints, rng.Int63n(10_000))
		c[3].Ints = append(c[3].Ints, rng.Int63n(64))
		c[4].Strs = append(c[4].Strs, regions[(i/5000)%len(regions)])
		for j := 5; j < 9; j++ {
			c[j].Floats = append(c[j].Floats, math.Round(rng.NormFloat64()*1024)/1024)
		}
	}
	if err := s.Load("events", b); err != nil {
		tb.Fatal(err)
	}
	m4 := &algos.GLMModel{Family: algos.Binomial, Converged: true, Coefficients: []float64{0.1, 0.8, -0.6, 0.4, -0.2}}
	if err := s.DeployModel("m4", "bench", "serving model", m4); err != nil {
		tb.Fatal(err)
	}
	srv := New(s, Config{})
	if err := srv.Prepare("fetch", fetchSQL); err != nil {
		tb.Fatal(err)
	}
	return srv
}

// benchFetch runs fetch, which returns the rows it delivered, b.N times after
// one warm-up run, and reports rows/s beside the allocations.
func benchFetch(b *testing.B, rows int, fetch func() (int, error)) {
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		if n, err := fetch(); err != nil || n != rows {
			b.Fatalf("fetched %d rows of %d: %v", n, rows, err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkFetch is the benchmark's fetch (fetch_rows_per_s on serve_single):
// the prepared statement on a server behind Listen, run through a DialTimeout
// client to boxed rows. Both ends run in this process, so B/op and allocs/op
// count the executor, the response's encoding, the client's decode and its
// boxing; BenchmarkFetchInProcess is the executor alone.
func BenchmarkFetch(b *testing.B) {
	const rows = 250_000
	tcp, err := Listen(fetchServer(b, rows), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = tcp.Close() })
	c, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	benchFetch(b, rows, func() (int, error) {
		res, err := c.Execute(context.Background(), "fetch")
		if err != nil {
			return 0, err
		}
		return len(res.Rows), nil
	})
}

// BenchmarkFetchInProcess is the same statement through Server.Execute: what
// server.exec_fetch_rows_per_s times, without the wire.
func BenchmarkFetchInProcess(b *testing.B) {
	const rows = 250_000
	srv := fetchServer(b, rows)
	benchFetch(b, rows, func() (int, error) {
		res, err := srv.Execute(context.Background(), "fetch")
		if err != nil {
			return 0, err
		}
		return res.Len(), nil
	})
}

// One client round trip of a one-column FLOAT result allocates the same
// objects at any row count: the response goes out from the result's own
// column and the client boxes a value without allocating it, where it once
// made an object of every value (150k more at four times the rows).
func TestFetchAllocsIndependentOfRows(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	allocs := func(rows int) int64 {
		_, c := wideSession(t, rows)
		query := func() {
			res, err := c.Query(context.Background(), `SELECT x FROM big`)
			if err != nil || len(res.Rows) != rows {
				t.Fatalf("SELECT x: %d rows of %d: %v", len(res.Rows), rows, err)
			}
		}
		query() // the plan cache and the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		query()
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	small, large := allocs(50_000), allocs(200_000)
	t.Logf("one fetch: %d objects at 50k rows, %d at 200k", small, large)
	if d := large - small; d > 100 || d < -100 {
		t.Fatalf("one fetch allocates %d objects at 50k rows and %d at 200k: something allocates per row", small, large)
	}
}

// A boxed cell points into the column the client decoded (colstore.Box), so
// it must keep its value once everything else of the response is gone: the
// batches at both ends and the frames dropped, three collections, fresh
// garbage over the freed memory. Every cell comes back with its bits and Go's
// own dynamic type — a change in the runtime's interface layout fails here
// instead of corrupting rows — and under -race every unsafe conversion is
// checked (checkptr) too. INTEGERs arrive as float64, rounded as float64(v).
func TestBoxedCellsOutliveTheirResponse(t *testing.T) {
	floats := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000005),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1.5,
	}
	ints := []int64{1<<53 + 1, 1<<53 - 1, -(1<<53 + 1), -(1<<53 - 1), math.MaxInt64, math.MinInt64, 0, -7}
	strs := []string{"\x00", "", "a\x00b", "", "\x00\x00\x00", "plain", "ü", ""}
	bools := []bool{true, false, false, true, true, true, false, true}
	const reps = 2000 // the columns are large objects, freed to spans of their own
	rows := boxedOverTheWire(t, reps, ints, floats, strs, bools)

	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var garbage [][]byte
	for i := 0; i < 512; i++ {
		g := bytes.Repeat([]byte{0xa5}, 64<<(i%10))
		garbage = append(garbage, g)
	}

	if len(rows) != reps*len(ints) {
		t.Fatalf("%d rows, want %d", len(rows), reps*len(ints))
	}
	for r, row := range rows {
		i := r % len(ints)
		want := []any{float64(ints[i]), floats[i], strs[i], bools[i]}
		for j, cell := range row {
			if got, wantT := reflect.TypeOf(cell), reflect.TypeOf(want[j]); got != wantT {
				t.Fatalf("row %d column %d is a %v, want a %v", r, j, got, wantT)
			}
			if f, ok := cell.(float64); ok {
				if math.Float64bits(f) != math.Float64bits(want[j].(float64)) {
					t.Fatalf("row %d column %d has bits %#x, want %#x", r, j, math.Float64bits(f), math.Float64bits(want[j].(float64)))
				}
			} else if cell != want[j] {
				t.Fatalf("row %d column %d is %q, want %q", r, j, cell, want[j])
			}
		}
	}
	runtime.KeepAlive(garbage)
}

// boxedOverTheWire serves reps repetitions of the given columns as a result
// and returns the rows a client boxed from it; nothing else of the exchange —
// server, batch, connection or frame — outlives the call.
func boxedOverTheWire(t *testing.T, reps int, ints []int64, floats []float64, strs []string, bools []bool) [][]any {
	t.Helper()
	schema := colstore.Schema{
		{Name: "i", Type: colstore.TypeInt64}, {Name: "f", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString}, {Name: "b", Type: colstore.TypeBool},
	}
	b := colstore.NewBatch(schema)
	for r := 0; r < reps; r++ {
		for i := range ints {
			if err := b.AppendRow(ints[i], floats[i], strs[i], bools[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	tcp, stop := listenFront(t, fuzzFront{res: &sqlexec.Result{Batch: b}})
	defer stop()
	c, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query(context.Background(), "SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// The body a server writes for a result is its chunk exactly: ChunkParts
// joined is EncodeChunkInto's bytes, for a result of every column type, for
// one row and for none.
func TestResultBodyIsTheChunk(t *testing.T) {
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString}, {Name: "flag", Type: colstore.TypeBool},
	}
	b := colstore.NewBatch(schema)
	for i := 0; i < 5000; i++ {
		if err := b.AppendRow(int64(i)*7919, math.Sqrt(float64(i)), string(rune('a'+i%26)), i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, rows := range []int{b.Len(), 1, 0} {
		r := b.Slice(0, rows)
		want, err := vft.EncodeChunkInto(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		parts, _, err := colstore.ChunkParts(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(parts, nil); !bytes.Equal(got, want) {
			t.Fatalf("%d rows: the body's %d bytes differ from the %d-byte chunk", rows, len(got), len(want))
		}
	}
}

// A response written from the result's columns while COPYs append in place to
// the table it was read from — the same shared tail — arrives as the
// statement's snapshot, bit for bit: a prefix of the load order ending on a
// COPY boundary. Under -race this is also the check that nothing writes what
// the response is reading.
func TestResponseByReferenceBesideCopy(t *testing.T) {
	const rows, copyRows = 200_000, 2048
	s, err := core.Start(core.Config{DBNodes: 1, DRWorkers: 1, InstancesPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	if err := s.ExecContext(ctx, `CREATE TABLE t (id INTEGER, x FLOAT)`); err != nil {
		t.Fatal(err)
	}
	def, err := s.DB.TableDef("t")
	if err != nil {
		t.Fatal(err)
	}
	// Every bit pattern is fair: NaN payloads and infinities among them.
	x := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }
	batch := func(lo, hi int) *colstore.Batch {
		b := colstore.NewBatchCap(def.Schema, hi-lo)
		for i := lo; i < hi; i++ {
			b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
			b.Cols[1].Floats = append(b.Cols[1].Floats, math.Float64frombits(x(i)))
		}
		return b
	}
	if err := s.Load("t", batch(0, rows)); err != nil {
		t.Fatal(err)
	}
	tcp, err := Listen(New(s, Config{}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	c, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	stop, copied := make(chan struct{}), make(chan error, 1)
	go func() {
		for next := rows; ; next += copyRows {
			select {
			case <-stop:
				copied <- nil
				return
			default:
			}
			if err := s.Load("t", batch(next, next+copyRows)); err != nil {
				copied <- err
				return
			}
		}
	}()
	for q := 0; q < 4; q++ {
		res, err := c.Query(ctx, `SELECT id, x FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.Rows)
		if n < rows || (n-rows)%copyRows != 0 {
			t.Fatalf("query %d: %d rows, not the %d loaded plus whole COPYs", q, n, rows)
		}
		for i, row := range res.Rows {
			if row[0] != float64(i) || math.Float64bits(row[1].(float64)) != x(i) {
				t.Fatalf("query %d row %d: (%v, %#x), want (%d, %#x)", q, i, row[0], math.Float64bits(row[1].(float64)), i, x(i))
			}
		}
	}
	close(stop)
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
}
