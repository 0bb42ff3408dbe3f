package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/darray"
	"verticadr/internal/vft"
)

// Streamed PREDICT and a TCP transfer read one pinned snapshot each while a
// COPY loop commits into the same table: every instance's cursor walks the
// snapshot's own blocks and tail, so whatever commits meanwhile, a reader
// sees a whole number of batches and never fewer than the one before it
// (run under -race: `make race`).
func TestStreamedReadsBesideCopyLoop(t *testing.T) {
	const seedRows, batchRows, batches = 3000, 500, 12
	s := startTest(t, Config{DBNodes: 3, DRWorkers: 3, InstancesPerWorker: 2, BlockRows: 64, UseTCPTransfer: true})
	loadRegressionTable(t, s, "t", seedRows, 2, 3)
	if err := s.DeployModel("m", "tester", "", &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{1, 2, -0.5}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(what string, rows, last int) int {
		if rows < last || rows < seedRows || rows > seedRows+batches*batchRows || (rows-seedRows)%batchRows != 0 {
			t.Errorf("%s saw %d rows after %d: not a snapshot of whole %d-row batches over %d", what, rows, last, batchRows, seedRows)
		}
		return rows
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := s.QueryContext(ctx, `SELECT GlmPredict(x0, x1 USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t`)
			if err != nil {
				t.Error(err)
				return
			}
			last = check("PREDICT", res.Len(), last)
		}
	}()
	go func() {
		defer readers.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			frame, stats, err := s.DB2DFrameContext(ctx, "t", []string{"x0", "y"}, vft.PolicyLocality)
			if err != nil {
				t.Error(err)
				return
			}
			if frame.Rows() != stats.Rows {
				t.Errorf("transfer assembled %d rows, sent %d", frame.Rows(), stats.Rows)
			}
			last = check("transfer", stats.Rows, last)
		}
	}()
	cols := make([][]float64, 3)
	for j := range cols {
		cols[j] = make([]float64, batchRows)
		for i := range cols[j] {
			cols[j][i] = float64(i%17) / 4
		}
	}
	for b := 0; b < batches; b++ {
		if err := s.DB.LoadColumns("t", cols); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	res, err := s.QueryContext(ctx, `SELECT GlmPredict(x0, x1 USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if want := seedRows + batches*batchRows; res.Len() != want {
		t.Fatalf("after the loop PREDICT saw %d rows, want %d", res.Len(), want)
	}
}

// Several transfers of one table at once, beside a COPY loop committing into
// it: every export instance forwards its snapshot's sealed blocks — shared,
// immutable — and reads its snapshot's own tail, so each frame is the seed
// plus a whole number of batches, bit for bit (run under -race: `make race`).
func TestConcurrentTransfersBesideCopyLoop(t *testing.T) {
	const seedRows, batchRows, batches, loaders = 3000, 500, 12, 3
	s := startTest(t, Config{DBNodes: 3, DRWorkers: 3, InstancesPerWorker: 1, BlockRows: 64})
	loadRegressionTable(t, s, "t", seedRows, 2, 5)
	cols := make([][]float64, 3)
	var batchBits uint64
	for j := range cols {
		cols[j] = make([]float64, batchRows)
		for i := range cols[j] {
			cols[j][i] = float64(i%19)/8 - float64(j)
			if j != 1 {
				batchBits += math.Float64bits(cols[j][i])
			}
		}
	}
	ctx := context.Background()
	bitsOf := func(frame *darray.DFrame) (bits uint64) {
		for p := 0; p < frame.NPartitions(); p++ {
			b, err := frame.Part(p)
			if err != nil {
				t.Error(err)
				return 0
			}
			for _, col := range b.Cols {
				for _, v := range col.Floats {
					bits += math.Float64bits(v)
				}
			}
		}
		return bits
	}
	seed, _, err := s.DB2DFrameContext(ctx, "t", []string{"x0", "y"}, vft.PolicyLocality)
	if err != nil {
		t.Fatal(err)
	}
	seedBits := bitsOf(seed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				frame, stats, err := s.DB2DFrameContext(ctx, "t", []string{"x0", "y"}, vft.PolicyLocality)
				if err != nil {
					t.Error(err)
					return
				}
				k := (stats.Rows - seedRows) / batchRows
				if stats.Rows < last || frame.Rows() != stats.Rows || k < 0 || k > batches || stats.Rows != seedRows+k*batchRows {
					t.Errorf("a transfer moved %d rows (frame %d) after %d: not the seed plus whole batches", stats.Rows, frame.Rows(), last)
					return
				}
				if got, want := bitsOf(frame), seedBits+uint64(k)*batchBits; got != want {
					t.Errorf("a transfer of the seed plus %d batches sums to %x, want %x", k, got, want)
					return
				}
				last = stats.Rows
			}
		}()
	}
	for b := 0; b < batches; b++ {
		if err := s.DB.LoadColumns("t", cols); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
