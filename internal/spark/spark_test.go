package spark

import (
	"math"
	"slices"
	"testing"

	"verticadr/internal/hdfs"
	"verticadr/internal/workload"
)

func newFS(t *testing.T, nodes, blockSize int) *hdfs.FS {
	t.Helper()
	fs, err := hdfs.New(hdfs.Config{DataNodes: nodes, BlockSize: blockSize, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestTextFileRoundTrip(t *testing.T) {
	fs := newFS(t, 3, 256)
	rows := [][]float64{{1, 2}, {3.5, -4}, {0, 0}, {1e10, 1e-10}}
	if err := WriteCSV(fs, "data.csv", rows); err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	rdd, err := ctx.TextFile("data.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("collected %d rows", len(got))
	}
	for i := range rows {
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

func TestTextFilePartitionsMatchBlocks(t *testing.T) {
	fs := newFS(t, 4, 64)
	data := workload.GenKmeans(3, 200, 4, 2, 1)
	if err := WriteCSV(fs, "d.csv", data.Points); err != nil {
		t.Fatal(err)
	}
	ctx, _ := NewContext(fs, 4)
	rdd, _ := ctx.TextFile("d.csv")
	blocks, _ := fs.Blocks("d.csv")
	if rdd.NumPartitions() != len(blocks) {
		t.Fatalf("parts %d != blocks %d", rdd.NumPartitions(), len(blocks))
	}
	n, err := rdd.Count()
	if err != nil || n != 200 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestKmeansConverges(t *testing.T) {
	fs := newFS(t, 3, 4096)
	data := workload.GenKmeans(7, 500, 3, 3, 0.1)
	if err := WriteCSV(fs, "pts.csv", data.Points); err != nil {
		t.Fatal(err)
	}
	ctx, _ := NewContext(fs, 4)
	rdd, _ := ctx.TextFile("pts.csv")
	rdd = rdd.Cache()
	model, err := Kmeans(rdd, 3, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Centers) != 3 {
		t.Fatalf("centers = %d", len(model.Centers))
	}
	// Every planted center recovered.
	for _, pc := range data.Centers {
		best := math.Inf(1)
		for _, fc := range model.Centers {
			var d float64
			for j := range pc {
				d += (pc[j] - fc[j]) * (pc[j] - fc[j])
			}
			if d < best {
				best = d
			}
		}
		if math.Sqrt(best) > 1 {
			t.Fatalf("planted center missed by %v", math.Sqrt(best))
		}
	}
}

// TestKmeansIsBitReproducible: the partitions' partials fold in partition
// order, whatever order their tasks finish in, so repeated fits of one RDD
// return the same objective and centers to the bit.
func TestKmeansIsBitReproducible(t *testing.T) {
	fs := newFS(t, 2, 1024)
	ctx, _ := NewContext(fs, 4)
	data := workload.GenKmeans(11, 20000, 3, 5, 0.5)
	rdd, err := ctx.Parallelize(data.Points, 16)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(m *KmeansModel) []uint64 {
		out := []uint64{math.Float64bits(m.Objective)}
		for _, c := range m.Centers {
			for _, v := range c {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	var first []uint64
	for fit := 0; fit < 20; fit++ {
		model, err := Kmeans(rdd, 5, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := bits(model); first == nil {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("fit %d: objective %v, centers %v differ in their bits from the first fit's", fit, model.Objective, model.Centers)
		}
	}
}

func TestKmeansValidation(t *testing.T) {
	fs := newFS(t, 2, 1024)
	ctx, _ := NewContext(fs, 2)
	rdd, _ := ctx.Parallelize([][]float64{{1}}, 1)
	if _, err := Kmeans(rdd, 5, 10, 1); err == nil {
		t.Fatal("K > rows should fail")
	}
	if _, err := NewContext(fs, 0); err == nil {
		t.Fatal("0 executors should fail")
	}
	if _, err := ctx.Parallelize(nil, 0); err == nil {
		t.Fatal("0 partitions should fail")
	}
	if _, err := ctx.TextFile("missing"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLocalScheduling(t *testing.T) {
	fs := newFS(t, 3, 128)
	data := workload.GenKmeans(9, 300, 3, 2, 1)
	_ = WriteCSV(fs, "l.csv", data.Points)
	ctx, _ := NewContext(fs, 4)
	rdd, _ := ctx.TextFile("l.csv")
	if _, err := rdd.Count(); err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.Blocks("l.csv")
	// Scheduling on first replica: every block read should be local.
	if rdd.LocalHit != len(blocks) {
		t.Fatalf("local hits %d of %d blocks", rdd.LocalHit, len(blocks))
	}
}
