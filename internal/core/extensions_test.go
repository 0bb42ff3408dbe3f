package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/darray"
	"verticadr/internal/hdfs"
	"verticadr/internal/spark"
	"verticadr/internal/vft"
)

func fitLM(x, y *darray.DArray) (*algos.GLMModel, error) {
	return algos.LM(x, y)
}

func TestTCPTransferSession(t *testing.T) {
	// Same Figure 3 load path, but chunks cross real loopback sockets.
	s := startTest(t, Config{DBNodes: 3, DRWorkers: 3, InstancesPerWorker: 2, UseTCPTransfer: true})
	beta := loadRegressionTable(t, s, "t", 2000, 2, 5)
	x, stats, err := s.DB2DArrayContext(context.Background(), "t", []string{"x0", "x1"}, "")
	if err != nil {
		t.Fatal(err)
	}
	y, _, err := s.DB2DArrayContext(context.Background(), "t", []string{"y"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 2000 || stats.Rows != 2000 {
		t.Fatalf("rows %d / stats %+v", x.Rows(), stats)
	}
	model, err := fitLM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range beta {
		if math.Abs(model.Coefficients[i]-b) > 0.05 {
			t.Fatalf("coef %d = %v want %v", i, model.Coefficients[i], b)
		}
	}
}

func TestDB2RDDBridge(t *testing.T) {
	// Vertica → Spark: load via VFT, run the Spark engine's K-means on it.
	s := startTest(t, Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 2})
	if err := s.ExecContext(context.Background(), `CREATE TABLE pts (a FLOAT, b FLOAT)`); err != nil {
		t.Fatal(err)
	}
	const n = 600
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		base := 0.0
		if i%2 == 1 {
			base = 50
		}
		cols[0][i] = base + float64(i%7)*0.01
		cols[1][i] = base + float64(i%5)*0.01
	}
	if err := s.DB.LoadColumns("pts", cols); err != nil {
		t.Fatal(err)
	}
	fs, err := hdfs.New(hdfs.Config{DataNodes: 2, BlockSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := spark.NewContext(fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	rdd, stats, err := s.DB2RDDContext(context.Background(), ctx, "pts", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != n {
		t.Fatalf("stats = %+v", stats)
	}
	cnt, err := rdd.Count()
	if err != nil || cnt != n {
		t.Fatalf("rdd count = %d, %v", cnt, err)
	}
	model, err := spark.Kmeans(rdd.Cache(), 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The two planted blobs at ~0 and ~50 must be recovered.
	var lo, hi bool
	for _, c := range model.Centers {
		if c[0] < 10 {
			lo = true
		}
		if c[0] > 40 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatalf("centers = %v", model.Centers)
	}
}

// TestConcurrentTCPTransfers: the TCP sender belongs to its transfer, so two
// loads on one UseTCPTransfer session neither overwrite each other's sink
// nor close each other's connections. Every load must cross the sockets
// (non-zero network phase) and, under the locality policy, reassemble to
// the same bytes as a load that ran alone.
func TestConcurrentTCPTransfers(t *testing.T) {
	s := startTest(t, Config{DBNodes: 3, DRWorkers: 3, InstancesPerWorker: 2, BlockRows: 64, UseTCPTransfer: true})
	loadRegressionTable(t, s, "t", 6000, 3, 7)
	ctx := context.Background()
	image := func(frame *darray.DFrame) [][]uint64 {
		out := make([][]uint64, frame.NPartitions())
		for p := range out {
			b, err := frame.Part(p)
			if err != nil {
				t.Error(err)
				return nil
			}
			for _, col := range b.Cols {
				for _, v := range col.Floats {
					out[p] = append(out[p], math.Float64bits(v))
				}
			}
		}
		return out
	}
	alone, _, err := s.DB2DFrameContext(ctx, "t", nil, vft.PolicyLocality)
	if err != nil {
		t.Fatal(err)
	}
	want := image(alone)

	const loaders, rounds = 2, 6
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				frame, stats, err := s.DB2DFrameContext(ctx, "t", nil, vft.PolicyLocality)
				if err != nil {
					t.Error(err)
					return
				}
				if stats.Rows != 6000 || stats.Network <= 0 {
					t.Errorf("transfer moved %d rows with network phase %v, want 6000 over the sockets", stats.Rows, stats.Network)
					return
				}
				if !reflect.DeepEqual(image(frame), want) {
					t.Error("concurrent transfer reassembled different bytes than a transfer running alone")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.Hub.Sessions(); n != 0 {
		t.Fatalf("%d transfer sessions left open", n)
	}
}
