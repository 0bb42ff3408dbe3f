package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/vft"
)

var (
	transfer9Feats = []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}
	transfer9Cols  = append(append([]string{}, transfer9Feats...), "c")
)

// transfer9Session builds the repository benchmark's paper_pipeline
// deployment — 4 nodes, 4 workers, one R instance each, default blocks —
// with its pts table (id, eight features, y and a 0/1 class) loaded as one
// batch.
func transfer9Session(tb testing.TB, rows int) *Session {
	tb.Helper()
	s, err := Start(Config{DBNodes: 4, DRWorkers: 4, InstancesPerWorker: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	if err := s.ExecContext(context.Background(),
		`CREATE TABLE pts (id INTEGER, f0 FLOAT, f1 FLOAT, f2 FLOAT, f3 FLOAT, f4 FLOAT, f5 FLOAT, f6 FLOAT, f7 FLOAT, y FLOAT, c FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		tb.Fatal(err)
	}
	def, err := s.DB.TableDef("pts")
	if err != nil {
		tb.Fatal(err)
	}
	batch := colstore.NewBatchCap(def.Schema, rows)
	x := uint64(1)
	for i := 0; i < rows; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		for j := 1; j <= 9; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			batch.Cols[j].Floats = append(batch.Cols[j].Floats, float64(x>>11)/(1<<53))
		}
		batch.Cols[10].Floats = append(batch.Cols[10].Floats, float64(x>>63))
	}
	if err := s.Load("pts", batch); err != nil {
		tb.Fatal(err)
	}
	return s
}

// transfer9 is the benchmark's transfer phase: one load of the nine columns
// and the two array conversions. It returns a wrapping sum of the arrays'
// bits, so a run that moved different bytes cannot pass for a faster one.
func transfer9(tb testing.TB, s *Session, rows int) uint64 {
	frame, stats, err := s.DB2DFrameContext(context.Background(), "pts", transfer9Cols, vft.PolicyLocality)
	if err != nil {
		tb.Fatal(err)
	}
	x, err := frame.AsDArray(transfer9Feats)
	if err != nil {
		tb.Fatal(err)
	}
	y, err := frame.AsDArray([]string{"c"})
	if err != nil {
		tb.Fatal(err)
	}
	if stats.Rows != rows || x.Rows() != rows || y.Rows() != rows {
		tb.Fatalf("moved %d rows (x %d, y %d), table holds %d", stats.Rows, x.Rows(), y.Rows(), rows)
	}
	var sum uint64
	for p := 0; p < x.NPartitions(); p++ {
		mx, err := x.Part(p)
		if err != nil {
			tb.Fatal(err)
		}
		my, err := y.Part(p)
		if err != nil {
			tb.Fatal(err)
		}
		sum += math.Float64bits(mx.Data[0]) + math.Float64bits(mx.Data[len(mx.Data)-1]) + math.Float64bits(my.Data[len(my.Data)-1])
	}
	return sum
}

// freeArrays drops what the workers hold: they never free transferred
// arrays themselves, and a repetition should not pay for the last one's heap.
func freeArrays(s *Session) {
	for i := 0; i < s.DR.NumWorkers(); i++ {
		w, err := s.DR.Worker(i)
		if err != nil {
			continue
		}
		for _, k := range w.Keys() {
			w.Delete(k)
		}
	}
}

// BenchmarkTransfer9 mirrors the repository benchmark's transfer phase at
// paper_pipeline's size (500k rows x 9 FLOAT columns, 4 nodes to 4
// workers), so transfer_rows_per_s can be iterated on in seconds. The arrays
// are freed off the clock.
func BenchmarkTransfer9(b *testing.B) {
	const rows = 500_000
	s := transfer9Session(b, rows)
	want := transfer9(b, s, rows)
	freeArrays(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := transfer9(b, s, rows); got != want {
			b.Fatalf("run %d moved different bits: %x, want %x", i, got, want)
		}
		b.StopTimer()
		freeArrays(s)
		runtime.GC()
		b.StartTimer()
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// One transfer allocates little beyond the data it moves: the frame
// partitions — the batches the hub decoded each message into — and the two
// arrays are the data twice over, and what is left is message buffers, which
// the pool hands back. Copying pooled staging batches into fresh partitions
// made it 2.1-2.3 times the data; per-instance staging batches, hub decodes
// grown by appending and message buffers regrown from 64 KiB once made it
// more than six.
func TestTransferAllocationStaysNearData(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	const rows = 500_000
	s := transfer9Session(t, rows)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		transfer9(t, s, rows)
		runtime.ReadMemStats(&after)
		freeArrays(s)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm the pools
	// A collection in mid-transfer empties the pools at a moment of its own
	// choosing, and a pooled buffer may be too small for the next message;
	// both only ever add, so the least of three runs is the transfer's own
	// appetite.
	got, data := min(run(), run(), run()), uint64(rows*9*8)
	if got > 22*data/10 {
		t.Fatalf("one transfer of %d rows x 9 columns allocated %d MB, more than 2.2x its %d MB of data", rows, got>>20, data>>20)
	}
	t.Logf("one transfer of %d rows x 9 columns: %d MB allocated for %d MB of data (%.1fx)", rows, got>>20, data>>20, float64(got)/float64(data))
}
