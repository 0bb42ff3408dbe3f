package core

import (
	"context"
	"sync"
	"testing"

	"verticadr/internal/algos"
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
