// Benchmarks: one per table and figure of the paper, plus the ablations
// DESIGN.md calls out. Cluster-scale figures (whose axes are 50–400 GB or
// 8–24 cores we do not have) benchmark the calibrated simulation that
// regenerates them; everything else drives the real engines at reduced
// scale. `go test -bench=. -benchmem` runs the lot; cmd/vdr-bench prints
// the paper-shaped series.
package verticadr_test

import (
	"context"
	"fmt"
	"testing"

	"verticadr"
	"verticadr/internal/bench"
	"verticadr/internal/darray"
	"verticadr/internal/hdfs"
	"verticadr/internal/rbaseline"
	"verticadr/internal/spark"
	"verticadr/internal/vft"
	"verticadr/internal/workload"
)

func newEnv(b *testing.B, dbNodes, workers, instances int) *bench.Env {
	b.Helper()
	e, err := bench.NewEnv(dbNodes, workers, instances)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	return e
}

func mustLoad(b *testing.B, e *bench.Env, table string, rows, feats int) {
	b.Helper()
	if err := e.LoadFeatureTable(context.Background(), table, rows, feats, 1); err != nil {
		b.Fatal(err)
	}
}

// --- Figure 1: single-connection ODBC baseline (real, reduced scale). ---

func BenchmarkFig1ODBCBaseline(b *testing.B) {
	e := newEnv(b, 4, 4, 2)
	mustLoad(b, e, "t", 20000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := e.S.LoadODBCContext(context.Background(), "t", nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		if frame.Rows() != 20000 {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(20000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// --- Figure 12: parallel ODBC vs VFT on the live engines. ---

func BenchmarkFig12TransferSmall(b *testing.B) {
	e := newEnv(b, 4, 4, 4)
	mustLoad(b, e, "t", 40000, 5)
	b.Run("ODBC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frame, err := e.S.LoadODBCContext(context.Background(), "t", nil, 16)
			if err != nil {
				b.Fatal(err)
			}
			if frame.Rows() != 40000 {
				b.Fatal("row loss")
			}
		}
		b.ReportMetric(float64(40000*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("VFT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frame, _, err := e.S.DB2DFrameContext(context.Background(), "t", nil, verticadr.PolicyLocality)
			if err != nil {
				b.Fatal(err)
			}
			if frame.Rows() != 40000 {
				b.Fatal("row loss")
			}
		}
		b.ReportMetric(float64(40000*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// --- Figures 13 & 14: cluster-scale transfer (calibrated simulation). ---

func BenchmarkFig13TransferLarge(b *testing.B) {
	c := bench.DefaultCalib()
	for i := 0; i < b.N; i++ {
		f := bench.Fig13(c)
		if f.Get("VFT").Get(400) > 600 {
			b.Fatal("VFT regression: >10 min at 400 GB")
		}
	}
}

func BenchmarkFig14Breakdown(b *testing.B) {
	c := bench.DefaultCalib()
	for i := 0; i < b.N; i++ {
		br := bench.SimVFTTransfer(c, 400, 12, 24)
		if br.DBPart <= 0 || br.Total < br.DBPart {
			b.Fatal("breakdown inconsistent")
		}
	}
}

// --- Figures 15 & 16: in-database prediction on the live engines. ---

func benchPredict(b *testing.B, query string, deploy func(e *bench.Env) error) {
	e := newEnv(b, 4, 4, 4)
	mustLoad(b, e, "pts", 100000, 6)
	if err := deploy(e); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.S.QueryContext(context.Background(), query)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 100000 {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkFig15KmeansPredict(b *testing.B) {
	benchPredict(b,
		`SELECT KmeansPredict(x0, x1, x2, x3, x4, x5 USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`,
		func(e *bench.Env) error {
			km := &verticadr.KmeansModel{K: 8, Centers: make([][]float64, 8)}
			for i := range km.Centers {
				c := make([]float64, 6)
				for j := range c {
					c[j] = float64(i - 4)
				}
				km.Centers[i] = c
			}
			return e.S.DeployModel("km", "bench", "", km)
		})
}

func BenchmarkFig16GlmPredict(b *testing.B) {
	benchPredict(b,
		`SELECT GlmPredict(x0, x1, x2, x3, x4, x5 USING PARAMETERS model='lm') OVER (PARTITION BEST) FROM pts`,
		func(e *bench.Env) error {
			lm := &verticadr.GLMModel{Family: verticadr.Gaussian,
				Coefficients: []float64{1, 0.5, -0.5, 1, -1, 2, -2}}
			return e.S.DeployModel("lm", "bench", "", lm)
		})
}

// --- Figure 17: K-means, stock R baseline vs Distributed R (real). ---

func BenchmarkFig17KmeansCores(b *testing.B) {
	data := workload.GenKmeans(1, 20000, 10, 20, 1.0)
	b.Run("R-single-thread", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rbaseline.Kmeans(data.Points, 20, 3, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DistributedR", func(b *testing.B) {
		e := newEnv(b, 2, 4, 4)
		m := darray.NewMat(len(data.Points), 10)
		for i, p := range data.Points {
			copy(m.Row(i), p)
		}
		x, err := darray.FromMat(e.S.DR, m, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := verticadr.Kmeans(x, verticadr.KmeansOpts{K: 20, MaxIter: 3, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 18: regression, QR baseline vs Newton–Raphson (real). ---

func BenchmarkFig18RegressionCores(b *testing.B) {
	data := workload.GenLinear(3, 30000, 7, 0.1)
	b.Run("R-QR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rbaseline.LM(data.X, data.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DR-NewtonRaphson", func(b *testing.B) {
		e := newEnv(b, 2, 4, 4)
		x, y := toArrays(b, e, data, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := verticadr.LM(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func toArrays(b *testing.B, e *bench.Env, data *workload.RegressionData, nparts int) (*verticadr.DArray, *verticadr.DArray) {
	b.Helper()
	m := darray.NewMat(len(data.X), len(data.X[0]))
	for i, r := range data.X {
		copy(m.Row(i), r)
	}
	ym := darray.NewMat(len(data.Y), 1)
	copy(ym.Data, data.Y)
	x, err := darray.FromMat(e.S.DR, m, nparts)
	if err != nil {
		b.Fatal(err)
	}
	y, err := darray.FromMat(e.S.DR, ym, nparts)
	if err != nil {
		b.Fatal(err)
	}
	return x, y
}

// --- Figure 19: regression weak scaling over worker counts (real). ---

func BenchmarkFig19RegressionNodes(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			e := newEnv(b, workers, workers, 2)
			data := workload.GenLinear(5, 10000*workers, 10, 0.1) // proportional rows
			x, y := toArrays(b, e, data, workers*2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := verticadr.LM(x, y)
				if err != nil {
					b.Fatal(err)
				}
				if !m.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// --- Figure 20: K-means, Distributed R vs the Spark comparator (real). ---

func BenchmarkFig20KmeansVsSpark(b *testing.B) {
	data := workload.GenKmeans(7, 20000, 10, 10, 1.0)
	b.Run("DistributedR", func(b *testing.B) {
		e := newEnv(b, 2, 4, 4)
		m := darray.NewMat(len(data.Points), 10)
		for i, p := range data.Points {
			copy(m.Row(i), p)
		}
		x, err := darray.FromMat(e.S.DR, m, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := verticadr.Kmeans(x, verticadr.KmeansOpts{K: 10, MaxIter: 3, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Spark", func(b *testing.B) {
		fs, err := hdfs.New(hdfs.Config{DataNodes: 4, BlockSize: 1 << 18, Replication: 3})
		if err != nil {
			b.Fatal(err)
		}
		if err := spark.WriteCSV(fs, "pts.csv", data.Points); err != nil {
			b.Fatal(err)
		}
		ctx, err := spark.NewContext(fs, 8)
		if err != nil {
			b.Fatal(err)
		}
		rdd, err := ctx.TextFile("pts.csv")
		if err != nil {
			b.Fatal(err)
		}
		rdd = rdd.Cache()
		if _, err := rdd.Count(); err != nil { // materialize cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := spark.Kmeans(rdd, 10, 3, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 21: end-to-end load + iterate, both stacks (real). ---

func BenchmarkFig21EndToEnd(b *testing.B) {
	data := workload.GenKmeans(9, 20000, 8, 5, 1.0)
	b.Run("Vertica+DR", func(b *testing.B) {
		e := newEnv(b, 4, 4, 4)
		mustLoad(b, e, "pts", 20000, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x, _, err := e.S.DB2DArrayContext(context.Background(), "pts", []string{"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}, "")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := verticadr.Kmeans(x, verticadr.KmeansOpts{K: 5, MaxIter: 2, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Spark+HDFS", func(b *testing.B) {
		fs, err := hdfs.New(hdfs.Config{DataNodes: 4, BlockSize: 1 << 18, Replication: 3})
		if err != nil {
			b.Fatal(err)
		}
		if err := spark.WriteCSV(fs, "pts.csv", data.Points); err != nil {
			b.Fatal(err)
		}
		ctx, err := spark.NewContext(fs, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rdd, err := ctx.TextFile("pts.csv") // load (parse) every iteration
			if err != nil {
				b.Fatal(err)
			}
			if _, err := spark.Kmeans(rdd.Cache(), 5, 2, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 1 and Figure 10 (real). ---

func BenchmarkTable1Constructs(b *testing.B) {
	e := newEnv(b, 2, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Table1Check(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ModelCatalog(b *testing.B) {
	e := newEnv(b, 3, 3, 2)
	lm := &verticadr.GLMModel{Family: verticadr.Gaussian, Coefficients: []float64{1, 2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("m%d", i)
		if err := e.S.DeployModel(name, "bench", "d", lm); err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.S.Models.Load(name, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4). ---

func BenchmarkAblationTransferPolicy(b *testing.B) {
	for _, policy := range []string{vft.PolicyLocality, vft.PolicyUniform} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			e := newEnv(b, 4, 4, 4)
			mustLoad(b, e, "t", 40000, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame, _, err := e.S.DB2DFrameContext(context.Background(), "t", nil, policy)
				if err != nil {
					b.Fatal(err)
				}
				x, err := frame.AsDArray(nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := verticadr.Kmeans(x, verticadr.KmeansOpts{K: 4, MaxIter: 2, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationBufferSize(b *testing.B) {
	e := newEnv(b, 4, 4, 4)
	mustLoad(b, e, "t", 40000, 4)
	for _, psize := range []int{128, 1024, 8192} {
		psize := psize
		b.Run(fmt.Sprintf("psize-%d", psize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := vft.LoadContext(context.Background(), e.S.DB, e.S.DR, e.S.Hub, "t", nil, vft.PolicyLocality, psize)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationConnections(b *testing.B) {
	e := newEnv(b, 4, 4, 4)
	mustLoad(b, e, "t", 40000, 4)
	for _, conns := range []int{1, 4, 16, 64} {
		conns := conns
		b.Run(fmt.Sprintf("conns-%d", conns), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.S.LoadODBCContext(context.Background(), "t", nil, conns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationPredictParallel(b *testing.B) {
	for _, inst := range []int{1, 4, 8} {
		inst := inst
		b.Run(fmt.Sprintf("udf-instances-%d", inst), func(b *testing.B) {
			e, err := bench.NewEnv(4, 4, inst)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.Close)
			mustLoad(b, e, "pts", 50000, 4)
			lm := &verticadr.GLMModel{Family: verticadr.Gaussian,
				Coefficients: []float64{1, 1, 1, 1, 1}}
			if err := e.S.DeployModel("lm", "bench", "", lm); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.S.QueryContext(context.Background(), `SELECT GlmPredict(x0, x1, x2, x3 USING PARAMETERS model='lm') OVER (PARTITION BEST) FROM pts`)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 50000 {
					b.Fatal("row loss")
				}
			}
		})
	}
}

func BenchmarkAblationSolver(b *testing.B) {
	data := workload.GenLinear(11, 20000, 6, 0.05)
	b.Run("NewtonRaphson", func(b *testing.B) {
		e := newEnv(b, 2, 2, 2)
		x, y := toArrays(b, e, data, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := verticadr.LM(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("QR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rbaseline.LM(data.X, data.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
}
