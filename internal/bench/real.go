package bench

import (
	"context"
	"fmt"
	"time"

	"verticadr/internal/algos"
	"verticadr/internal/core"
	"verticadr/internal/darray"
	"verticadr/internal/faults"
	"verticadr/internal/hdfs"
	"verticadr/internal/rbaseline"
	"verticadr/internal/spark"
	"verticadr/internal/telemetry"
	"verticadr/internal/vft"
	"verticadr/internal/workload"
)

// Env is a reduced-scale but fully real environment: actual column store,
// SQL engine, transfer paths, Distributed R runtime and model manager. The
// root bench_test.go drives these and the table/figure verifiers below.
type Env struct {
	S *core.Session
}

// NewEnv starts a real session.
func NewEnv(dbNodes, drWorkers, instances int) (*Env, error) {
	s, err := core.Start(core.Config{
		DBNodes:            dbNodes,
		DRWorkers:          drWorkers,
		InstancesPerWorker: instances,
		BlockRows:          2048,
	})
	if err != nil {
		return nil, err
	}
	return &Env{S: s}, nil
}

// Close tears the environment down.
func (e *Env) Close() { e.S.Close() }

// LoadFeatureTable materializes a synthetic float table named `name` with
// feats feature columns x0..x{n-1} and a response column y.
func (e *Env) LoadFeatureTable(ctx context.Context, name string, rows, feats int, seed int64) error {
	ddl := "CREATE TABLE " + name + " ("
	featCols := make([]string, feats)
	for i := range featCols {
		featCols[i] = fmt.Sprintf("x%d", i)
		ddl += featCols[i] + " FLOAT, "
	}
	ddl += "y FLOAT)"
	if err := e.S.ExecContext(ctx, ddl); err != nil {
		return err
	}
	spec := workload.TableSpec{Name: name, FeatCols: featCols, RespCol: "y", Rows: rows, Seed: seed}
	cols, _, _ := spec.Gen()
	return e.S.DB.LoadColumns(name, cols)
}

// RealTransferResult compares the two loaders on the same live table.
type RealTransferResult struct {
	ODBC time.Duration
	VFT  time.Duration
	Rows int
}

// RealTransferComparison measures actual ODBC vs actual VFT end to end on
// the real engines (the measured counterpart of Figs. 12–13).
func (e *Env) RealTransferComparison(ctx context.Context, table string, connections int) (*RealTransferResult, error) {
	start := time.Now()
	frame, err := e.S.LoadODBCContext(ctx, table, nil, connections)
	if err != nil {
		return nil, err
	}
	odbcT := time.Since(start)
	rows := frame.Rows()

	start = time.Now()
	vframe, _, err := e.S.DB2DFrameContext(ctx, table, nil, "")
	if err != nil {
		return nil, err
	}
	vftT := time.Since(start)
	if vframe.Rows() != rows {
		return nil, fmt.Errorf("bench: loaders disagree on rows: %d vs %d", vframe.Rows(), rows)
	}
	return &RealTransferResult{ODBC: odbcT, VFT: vftT, Rows: rows}, nil
}

// ChaosTransferResult reports a transfer run under fault injection against
// a clean reference run of the same table.
type ChaosTransferResult struct {
	Rows        int
	CleanTime   time.Duration
	ChaosTime   time.Duration
	Retransmits int64 // vft_retransmits_total delta during the chaotic run
	DupChunks   int64 // vft_dup_chunks_total delta
	Injected    int64 // total faults fired across all sites
}

// RunChaosTransfer loads the table once cleanly, then again under the
// standard chaos profile with the given seed, and verifies the chaotic load
// recovered every row. Chunks are kept small so the transfer visits the
// injection site often enough for the profile's every-20th-send drop to
// actually fire. The caller's process-wide injector is saved and restored
// around the run.
func (e *Env) RunChaosTransfer(ctx context.Context, table string, seed int64) (*ChaosTransferResult, error) {
	rows, err := e.S.DB.TableRows(table)
	if err != nil {
		return nil, err
	}
	psize := rows / 128
	if psize < 1 {
		psize = 1
	}
	policy := vft.PolicyUniform
	if e.S.DB.NumNodes() == e.S.DR.NumWorkers() {
		policy = vft.PolicyLocality
	}
	load := func() (*darray.DFrame, error) {
		f, _, err := vft.LoadContext(ctx, e.S.DB, e.S.DR, e.S.Hub, table, nil, policy, psize)
		return f, err
	}

	prev := faults.Active()
	faults.Install(nil)
	start := time.Now()
	ref, err := load()
	if err != nil {
		faults.Install(prev)
		return nil, fmt.Errorf("bench: clean reference load: %w", err)
	}
	cleanT := time.Since(start)

	reg := telemetry.Default()
	retrans0 := reg.Counter("vft_retransmits_total").Value()
	dups0 := reg.Counter("vft_dup_chunks_total").Value()
	in := faults.Chaos(seed)
	faults.Install(in)
	start = time.Now()
	frame, err := load()
	faults.Install(prev)
	if err != nil {
		return nil, fmt.Errorf("bench: chaotic load did not recover: %w", err)
	}
	chaosT := time.Since(start)
	if frame.Rows() != ref.Rows() {
		return nil, fmt.Errorf("bench: chaotic load lost rows: %d vs %d", frame.Rows(), ref.Rows())
	}
	var injected int64
	for _, s := range in.Stats() {
		injected += int64(s.Fires)
	}
	return &ChaosTransferResult{
		Rows:        frame.Rows(),
		CleanTime:   cleanT,
		ChaosTime:   chaosT,
		Retransmits: reg.Counter("vft_retransmits_total").Value() - retrans0,
		DupChunks:   reg.Counter("vft_dup_chunks_total").Value() - dups0,
		Injected:    injected,
	}, nil
}

// Table1Check exercises every Table 1 language construct against the live
// runtime and reports an error naming any construct that misbehaves.
func (e *Env) Table1Check() error {
	c := e.S.DR
	// darray(npartitions=)
	a, err := darray.New(c, 3)
	if err != nil {
		return fmt.Errorf("darray(npartitions=): %w", err)
	}
	for i, rows := range []int{1, 3, 2} { // Fig. 8's uneven sizes
		if err := a.Fill(i, darray.NewMat(rows, 2)); err != nil {
			return fmt.Errorf("darray fill: %w", err)
		}
	}
	// partitionsize(A, i)
	if r, cc, err := a.PartitionSize(1); err != nil || r != 3 || cc != 2 {
		return fmt.Errorf("partitionsize(A,1) = (%d,%d,%v), want (3,2)", r, cc, err)
	}
	// partitionsize(A) — all partitions
	sizes := a.PartitionSizes()
	if len(sizes) != 3 || sizes[0][0] != 1 || sizes[2][0] != 2 {
		return fmt.Errorf("partitionsize(A) = %v", sizes)
	}
	// clone(A, ncol=)
	y, err := a.Clone(1)
	if err != nil {
		return fmt.Errorf("clone(A): %w", err)
	}
	if err := darray.CheckCoPartitioned(a, y); err != nil {
		return fmt.Errorf("clone co-partitioning: %w", err)
	}
	// dframe(npartitions=)
	if _, err := darray.NewFrame(c, 2); err != nil {
		return fmt.Errorf("dframe(npartitions=): %w", err)
	}
	// dlist(npartitions=)
	l, err := darray.NewList(c, 2)
	if err != nil {
		return fmt.Errorf("dlist(npartitions=): %w", err)
	}
	if err := l.Fill(0, []any{1, "two"}); err != nil {
		return fmt.Errorf("dlist fill: %w", err)
	}
	if n, err := l.PartitionSize(0); err != nil || n != 2 {
		return fmt.Errorf("dlist partitionsize = %d, %v", n, err)
	}
	return nil
}

// Fig10Check deploys two models and verifies the R_Models catalog matches
// the shape of Figure 10 (model | owner | type | size | description).
func (e *Env) Fig10Check(ctx context.Context) error {
	km := &algos.KmeansModel{K: 2, Centers: [][]float64{{0}, {1}}}
	lm := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{1, 2}}
	if err := e.S.DeployModel("model1", "X", "clustering", km); err != nil {
		return err
	}
	if err := e.S.DeployModel("model2", "Y", "forecasting", lm); err != nil {
		return err
	}
	res, err := e.S.QueryContext(ctx, `SELECT model, owner, type, size, description FROM R_Models ORDER BY model`)
	if err != nil {
		return err
	}
	rows := res.Rows()
	if len(rows) != 2 {
		return fmt.Errorf("R_Models has %d rows, want 2", len(rows))
	}
	if rows[0][0] != "model1" || rows[0][2] != "kmeans" || rows[0][4] != "clustering" {
		return fmt.Errorf("row 0 = %v", rows[0])
	}
	if rows[1][0] != "model2" || rows[1][2] != "regression" || rows[1][4] != "forecasting" {
		return fmt.Errorf("row 1 = %v", rows[1])
	}
	if rows[0][3].(int64) <= 0 || rows[1][3].(int64) <= 0 {
		return fmt.Errorf("sizes not positive: %v %v", rows[0][3], rows[1][3])
	}
	return nil
}

// RealKmeansCompare runs the same K-means workload through Distributed R
// and through the Spark comparator, returning objective values and timings
// (the measured counterpart of Fig. 20; on one OS core the timings are not
// speedups, but the objectives must agree — the apples-to-apples check).
type RealKmeansCompare struct {
	DRObjective    float64
	SparkObjective float64
	DRTime         time.Duration
	SparkTime      time.Duration
}

// RunRealKmeansCompare executes both engines on the same generated points.
func (e *Env) RunRealKmeansCompare(n, d, k, iters int, seed int64) (*RealKmeansCompare, error) {
	data := workload.GenKmeans(seed, n, d, k, 0.5)
	out := &RealKmeansCompare{}

	start := time.Now()
	m := darray.NewMat(n, d)
	for i, p := range data.Points {
		copy(m.Row(i), p)
	}
	x, err := darray.FromMat(e.S.DR, m, e.S.DR.NumWorkers()*2)
	if err != nil {
		return nil, err
	}
	drm, err := algos.Kmeans(x, algos.KmeansOpts{K: k, MaxIter: iters, Seed: seed, InitPlus: true})
	if err != nil {
		return nil, err
	}
	out.DRTime = time.Since(start)
	out.DRObjective = drm.Objective

	start = time.Now()
	fs, err := hdfs.New(hdfs.Config{DataNodes: e.S.DR.NumWorkers(), BlockSize: 1 << 16, Replication: 3})
	if err != nil {
		return nil, err
	}
	if err := spark.WriteCSV(fs, "pts.csv", data.Points); err != nil {
		return nil, err
	}
	ctx, err := spark.NewContext(fs, e.S.DR.NumWorkers()*2)
	if err != nil {
		return nil, err
	}
	rdd, err := ctx.TextFile("pts.csv")
	if err != nil {
		return nil, err
	}
	sm, err := spark.Kmeans(rdd.Cache(), k, iters, seed)
	if err != nil {
		return nil, err
	}
	out.SparkTime = time.Since(start)
	out.SparkObjective = sm.Objective
	return out, nil
}

// SolverComparison is the Newton–Raphson vs QR ablation (§7.3.1): both must
// reach the same coefficients on the same data.
type SolverComparison struct {
	MaxCoefDiff float64
	NRTime      time.Duration
	QRTime      time.Duration
}

// RunSolverComparison fits the same regression with both solvers.
func (e *Env) RunSolverComparison(n, d int, seed int64) (*SolverComparison, error) {
	data := workload.GenLinear(seed, n, d, 0.05)

	start := time.Now()
	m := darray.NewMat(n, d)
	for i, r := range data.X {
		copy(m.Row(i), r)
	}
	ym := darray.NewMat(n, 1)
	copy(ym.Data, data.Y)
	x, err := darray.FromMat(e.S.DR, m, e.S.DR.NumWorkers())
	if err != nil {
		return nil, err
	}
	y, err := darray.FromMat(e.S.DR, ym, e.S.DR.NumWorkers())
	if err != nil {
		return nil, err
	}
	nr, err := algos.LM(x, y)
	if err != nil {
		return nil, err
	}
	nrT := time.Since(start)

	start = time.Now()
	qr, err := rbaseline.LM(data.X, data.Y)
	if err != nil {
		return nil, err
	}
	qrT := time.Since(start)

	var maxDiff float64
	for i := range nr.Coefficients {
		d := nr.Coefficients[i] - qr.Coefficients[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return &SolverComparison{MaxCoefDiff: maxDiff, NRTime: nrT, QRTime: qrT}, nil
}

// TransferPolicyAblation loads a deliberately skewed table under both
// policies and reports partition balance (§3.2's straggler discussion).
type TransferPolicyAblation struct {
	LocalitySizes []int
	UniformSizes  []int
}

// RunTransferPolicyAblation puts all rows on one node, then loads both ways.
func (e *Env) RunTransferPolicyAblation(ctx context.Context, rows int) (*TransferPolicyAblation, error) {
	if err := e.S.ExecContext(ctx, `CREATE TABLE skewed (a FLOAT, b FLOAT)`); err != nil {
		return nil, err
	}
	spec := workload.TableSpec{Name: "skewed", FeatCols: []string{"a", "b"}, Rows: rows, Seed: 7}
	cols, _, _ := spec.Gen()
	// Everything on node 0: maximal skew.
	b, err := batchFromCols(e.S, "skewed", cols)
	if err != nil {
		return nil, err
	}
	if err := e.S.DB.LoadAt("skewed", 0, b); err != nil {
		return nil, err
	}
	_, locStats, err := e.S.DB2DFrameContext(ctx, "skewed", nil, vft.PolicyLocality)
	if err != nil {
		return nil, err
	}
	_, uniStats, err := e.S.DB2DFrameContext(ctx, "skewed", nil, vft.PolicyUniform)
	if err != nil {
		return nil, err
	}
	return &TransferPolicyAblation{LocalitySizes: locStats.PartSizes, UniformSizes: uniStats.PartSizes}, nil
}
