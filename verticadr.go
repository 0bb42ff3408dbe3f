// Package verticadr is a from-scratch Go reproduction of "Large-scale
// Predictive Analytics in Vertica: Fast Data Transfer, Distributed Model
// Creation, and In-database Prediction" (Prasad et al., SIGMOD 2015).
//
// It pairs an MPP columnar database (the Vertica substitute) with a
// distributed in-memory analytics runtime (the Distributed R substitute)
// and provides the paper's three contributions as a library:
//
//   - fast, parallel data transfer between the database and the analytics
//     runtime (Vertica Fast Transfer, with locality-preserving and uniform
//     distribution policies), plus the classic parallel-ODBC baseline;
//   - distributed model creation: K-means, GLM/linear regression via
//     Newton–Raphson, cross-validation and random forests over distributed
//     arrays with uneven partitions;
//   - in-database model deployment and parallel prediction: models are
//     serialized into the database's replicated file system, catalogued in
//     the R_Models table, and applied with SQL — e.g.
//     SELECT GlmPredict(a, b USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t.
//
// # Context-first API
//
// Every operation that does real work takes a context.Context first —
// QueryContext, ExecContext, DB2DArrayContext, DB2DFrameContext,
// LoadODBCContext, DB2RDDContext — and that is its only spelling: there are
// no context-less wrappers. Cancellation and deadlines are honored inside
// the engine at scan-block and aggregation-chunk boundaries, so a canceled
// query stops within one storage block rather than running to completion.
// Load, Checkpoint, DeployModel and RedeployModel take no context; they run
// under the session's lifecycle (Close drains them, and after Close they
// fail with ErrClosed).
//
// Failures at the public boundaries are typed: errors.Is(err,
// verticadr.ErrTableNotFound / ErrUnknownColumn / ErrModelNotFound /
// ErrOverloaded / ErrCanceled / ErrClosed) dispatches on the condition
// without string matching, including across the serving protocol below.
//
// Quickstart (the paper's Figure 3 workflow):
//
//	s, _ := verticadr.Start(verticadr.Config{DBNodes: 4})
//	defer s.Close()
//	ctx := context.Background()
//	s.ExecContext(ctx, `CREATE TABLE mytable (a FLOAT, b FLOAT, y FLOAT)`)
//	// ... load data ...
//	x, _, _ := s.DB2DArrayContext(ctx, "mytable", []string{"a", "b"}, "")
//	y, _, _ := s.DB2DArrayContext(ctx, "mytable", []string{"y"}, "")
//	model, _ := verticadr.GLM(x, y, verticadr.GLMOpts{Family: verticadr.Gaussian})
//	s.DeployModel("rModel", "me", "forecast", model)
//	res, _ := s.QueryContext(ctx, `SELECT GlmPredict(a, b USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable`)
//	_ = res
//
// # Serving
//
// For many concurrent callers, wrap the session in the serving layer: a
// bounded-concurrency front door with a prepared-statement plan cache, a
// shared deserialized-model cache, and admission control that sheds excess
// load with ErrOverloaded instead of collapsing. It is also exposed over a
// TCP line protocol by cmd/vdr-serve.
//
//	srv := verticadr.NewServer(s, verticadr.ServerConfig{MaxConcurrent: 8})
//	srv.Prepare("score", `SELECT GlmPredict(a, b USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable`)
//	res, err := srv.Execute(ctx, "score")
//	if errors.Is(err, verticadr.ErrOverloaded) { /* back off and retry */ }
//
// # Multi-node serving
//
// Several vdr-serve processes form a sharded cluster: tables are hash- or
// round-robin-segmented across the nodes with k-way replication, every
// node routes queries cluster-wide ("every node is an initiator"), and
// idempotent reads fail over to a replica when a node dies. The unified
// Client talks to one server or a whole cluster through the same API:
//
//	cl, _ := verticadr.Dial(ctx, verticadr.ClusterConfig{
//	    Addrs: []string{"10.0.0.1:5433", "10.0.0.2:5433", "10.0.0.3:5433"},
//	    Replicas: 2,
//	})
//	defer cl.Close()
//	cl.Exec(ctx, `CREATE TABLE pts (id FLOAT, a FLOAT, b FLOAT) SEGMENTED BY HASH(id)`)
//	cl.Load(ctx, "pts", rows)                       // COPY, split across shards
//	res, _ := cl.Predict(ctx, "rModel", "pts", "a", "b")
//	if errors.Is(err, verticadr.ErrNodeDown) { /* every replica of a shard is gone */ }
package verticadr

import (
	"context"
	"net/http"

	"verticadr/internal/algos"
	"verticadr/internal/core"
	"verticadr/internal/darray"
	"verticadr/internal/server"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
)

// Typed error vocabulary, matchable with errors.Is end to end — including
// errors that crossed the vdr-serve TCP protocol.
var (
	// ErrTableNotFound: a statement referenced a table absent from the catalog.
	ErrTableNotFound = verr.ErrTableNotFound
	// ErrUnknownColumn: an expression referenced a column the table lacks.
	ErrUnknownColumn = verr.ErrUnknownColumn
	// ErrModelNotFound: a prediction referenced a model that is not deployed.
	ErrModelNotFound = verr.ErrModelNotFound
	// ErrOverloaded: admission control shed the query; retry after backoff.
	ErrOverloaded = verr.ErrOverloaded
	// ErrCanceled: the query's context ended and execution stopped at the
	// next block boundary.
	ErrCanceled = verr.ErrCanceled
	// ErrClosed: the session or server is shut down.
	ErrClosed = verr.ErrClosed
)

// Serving layer (one front door over a Session for many concurrent callers).
type (
	// Server is the concurrent query-serving layer: plan cache, model
	// cache, admission control, per-query deadlines.
	Server = server.Server
	// ServerConfig tunes concurrency limits, queue bounds and cache sizes.
	ServerConfig = server.Config
	// ServerClient is the TCP line-protocol client for cmd/vdr-serve.
	ServerClient = server.Client
	// Rows is a protocol-level result set (columns, row values, optional
	// profile), as returned by Client and ServerClient queries. Values are
	// typed by their column and arrive bit-exact — FLOAT float64 (NaN
	// payloads and ±Inf included), VARCHAR string, BOOLEAN bool — except
	// that INTEGER arrives as float64 too, exact only to 2^53.
	Rows = server.Rows
)

// NewServer wraps a session in the serving layer.
func NewServer(s *Session, cfg ServerConfig) *Server { return server.New(s, cfg) }

// ListenAndServe exposes a Server on a TCP address (the cmd/vdr-serve
// protocol); returns the bound endpoint.
func ListenAndServe(srv *Server, addr string) (*server.TCPServer, error) {
	return server.Listen(srv, addr)
}

// RawDial opens one protocol connection without routing or failover, for
// callers that need the bare wire: extension ops, or benchmarking a
// specific node. The dial has no deadline; a failure satisfies
// errors.Is(err, ErrNodeDown).
func RawDial(addr string) (*ServerClient, error) { return server.DialTimeout(addr, 0) }

// Observability: traces, statement statistics and the admin HTTP surface.
type (
	// Span is one node in a query trace; End it to close the span.
	Span = telemetry.Span
	// TraceRecord is one trace's spans, as served by /traces/recent.
	TraceRecord = telemetry.TraceRecord
	// StatementStats is the server's pg_stat_statements analogue.
	StatementStats = server.StmtStats
)

// StartTrace opens a root span on the default telemetry registry and returns
// a context carrying it. Pass that context through QueryContext, Server or
// ServerClient calls and every layer — client protocol, server admission,
// execution, per-operator engine stages — attaches its spans under it,
// including across the vdr-serve wire. End the returned span to close the
// trace.
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	return telemetry.Default().StartTrace(ctx, name)
}

// RecentTraces returns the most recent n completed or in-flight traces from
// the default registry's bounded span buffer.
func RecentTraces(n int) []TraceRecord { return telemetry.Default().Spans().Traces(n) }

// MetricsText renders every telemetry series in Prometheus text exposition
// format (what the vdr-serve admin endpoint serves at /metrics).
func MetricsText() string { return telemetry.Default().PromText() }

// AdminHandler is the observability HTTP surface for a Server — /metrics,
// /statements, /traces/recent, /healthz and /debug/pprof/ — for embedding
// vdr-serve's -admin endpoint in another process. On clustered nodes pass
// server.WithClusterState to include the router's per-peer view in
// /healthz.
func AdminHandler(srv *Server, opts ...server.AdminOption) http.Handler {
	return server.AdminHandler(srv, opts...)
}

// Config sizes a session: database nodes, Distributed R workers, R
// instances per worker, optional YARN brokering and persistence.
type Config = core.Config

// Session is a paired database + Distributed R runtime (Figure 2 of the
// paper). Sessions are created with Start and must be Closed.
type Session = core.Session

// Start launches a session (distributedR_start(), Fig. 3 lines 1–3).
func Start(cfg Config) (*Session, error) { return core.Start(cfg) }

// Transfer policies for DB2DArrayContext / DB2DFrameContext (§3.2).
const (
	// PolicyLocality preserves table-segment locality (Fig. 5); requires
	// equal database-node and worker counts.
	PolicyLocality = vft.PolicyLocality
	// PolicyUniform spreads rows evenly regardless of segmentation skew
	// (Fig. 6).
	PolicyUniform = vft.PolicyUniform
)

// Distributed data structures (§4, Table 1).
type (
	// DArray is a row-partitioned distributed matrix supporting uneven
	// partition sizes.
	DArray = darray.DArray
	// DFrame is a distributed typed data frame.
	DFrame = darray.DFrame
	// DList is a distributed list.
	DList = darray.DList
	// Mat is one dense matrix partition.
	Mat = darray.Mat
)

// NewMat allocates a zeroed matrix partition.
func NewMat(rows, cols int) *Mat { return darray.NewMat(rows, cols) }

// Machine-learning models and solvers (§7.3's workloads).
type (
	// KmeansModel is a fitted clustering model.
	KmeansModel = algos.KmeansModel
	// KmeansOpts configures Kmeans.
	KmeansOpts = algos.KmeansOpts
	// GLMModel is a fitted (generalized) linear model.
	GLMModel = algos.GLMModel
	// GLMOpts configures GLM.
	GLMOpts = algos.GLMOpts
	// ForestModel is a bagged random forest.
	ForestModel = algos.ForestModel
	// ForestOpts configures RandomForest.
	ForestOpts = algos.ForestOpts
	// CVResult holds cross-validation deviances.
	CVResult = algos.CVResult
	// Family selects the GLM response family.
	Family = algos.Family
)

// GLM families.
const (
	Gaussian = algos.Gaussian
	Binomial = algos.Binomial
	Poisson  = algos.Poisson
)

// Kmeans fits distributed K-means (hpdkmeans) over a distributed array.
func Kmeans(x *DArray, opts KmeansOpts) (*KmeansModel, error) { return algos.Kmeans(x, opts) }

// GLM fits a generalized linear model with distributed Newton–Raphson
// (hpdglm, Fig. 3 line 6).
func GLM(x, y *DArray, opts GLMOpts) (*GLMModel, error) { return algos.GLM(x, y, opts) }

// LM fits ordinary least squares (Gaussian GLM).
func LM(x, y *DArray) (*GLMModel, error) { return algos.LM(x, y) }

// CrossValidate runs k-fold cross-validation (cv.hpdglm, Fig. 3 line 7).
func CrossValidate(x, y *DArray, opts GLMOpts, folds int) (*CVResult, error) {
	return algos.CrossValidate(x, y, opts, folds)
}

// RandomForest trains a bagged forest with per-worker data locality.
func RandomForest(x, y *DArray, opts ForestOpts) (*ForestModel, error) {
	return algos.RandomForest(x, y, opts)
}
