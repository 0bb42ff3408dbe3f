// Package core is the integration layer the paper contributes: it wires the
// MPP database (internal/vertica) to the Distributed R runtime
// (internal/dr) with fast parallel transfer (internal/vft), distributed
// model creation (internal/algos over internal/darray), in-database model
// deployment and prediction (internal/models), the ODBC baseline connector
// (internal/odbc) and YARN-brokered resources (internal/yarn). A Session is
// the programmatic equivalent of Figure 3's R console: distributedR_start()
// through deploy.model and glmPredict.
package core

import (
	"context"
	"fmt"
	"sync"

	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/models"
	"verticadr/internal/odbc"
	"verticadr/internal/parallel"
	"verticadr/internal/spark"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/verr"
	"verticadr/internal/vertica"
	"verticadr/internal/vft"
	"verticadr/internal/yarn"
)

// Config sizes a session.
type Config struct {
	// DBNodes is the database cluster size (default 4).
	DBNodes int
	// DRWorkers is the Distributed R worker count (default DBNodes, which
	// enables the locality transfer policy).
	DRWorkers int
	// InstancesPerWorker is the R instances per worker (default 4).
	InstancesPerWorker int
	// UDFInstancesPerNode is the database planner's PARTITION BEST
	// parallelism (default 4).
	UDFInstancesPerNode int
	// Replication is the DFS replication factor for models (default 2).
	Replication int
	// BlockRows overrides the storage block size (tests use small blocks).
	BlockRows int
	// DataDir is where Durable persists. Without Durable only DFS model
	// blobs spill there; tables and catalog stay in memory.
	DataDir string
	// Durable enables the ingest write-ahead log under DataDir: commits are
	// fsync-durable before they are acknowledged, and Start recovers the
	// pre-crash state (checkpoint image + log replay) before serving.
	Durable bool
	// UseYARN brokers CPU/memory through the resource manager (§6): the
	// database takes long-lived containers, the session per-use containers.
	UseYARN bool
	// UseTCPTransfer routes VFT chunk streams over real loopback TCP
	// sockets (worker listeners + database-side dialers) instead of
	// in-process handoff — the deployment where Distributed R runs on
	// different machines than the database.
	UseTCPTransfer bool
	// CoresPerNode / MemoryMBPerNode size the YARN nodes (defaults 24 /
	// 196000, the paper's testbed).
	CoresPerNode    int
	MemoryMBPerNode int
	// TaskRetries caps in-place re-execution of failed Distributed R tasks
	// (default 0: fail fast; the chaos profile raises it).
	TaskRetries int
	// Parallelism pins the process-wide intra-node execution degree for
	// scans, aggregation and IRLS (default 0: use GOMAXPROCS). Results are
	// bit-identical at every degree; this only trades latency for cores.
	Parallelism int
}

// Session is a running database + Distributed R pairing.
type Session struct {
	DB     *vertica.DB
	DR     *dr.Cluster
	Hub    *vft.Hub
	Models *models.Manager
	ODBC   *odbc.Server

	RM           *yarn.ResourceManager
	tcp          *vft.TCPService
	dbApp        *yarn.App
	drApp        *yarn.App
	dbContainers []*yarn.Container
	drContainers []*yarn.Container

	// Lifecycle state: Close first fails fast for new work, then cancels
	// every in-flight operation's context and waits for them to drain, so
	// shutdown cannot race a running query (the unsafe-Close bug).
	mu       sync.Mutex
	closed   bool
	nextOp   uint64
	cancels  map[uint64]context.CancelFunc
	inflight sync.WaitGroup
}

// Start launches a session (Fig. 3 lines 1–3).
func Start(cfg Config) (*Session, error) {
	if cfg.DBNodes <= 0 {
		cfg.DBNodes = 4
	}
	if cfg.DRWorkers <= 0 {
		cfg.DRWorkers = cfg.DBNodes
	}
	if cfg.InstancesPerWorker <= 0 {
		cfg.InstancesPerWorker = 4
	}
	if cfg.UDFInstancesPerNode <= 0 {
		cfg.UDFInstancesPerNode = 4
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 24
	}
	if cfg.MemoryMBPerNode <= 0 {
		cfg.MemoryMBPerNode = 196_000
	}
	if cfg.Parallelism > 0 {
		parallel.SetDefaultDegree(cfg.Parallelism)
	}
	s := &Session{cancels: make(map[uint64]context.CancelFunc)}

	if cfg.UseYARN {
		// One YARN node per physical node; the database and Distributed R
		// share nodes under capacity isolation (§6).
		nodes := cfg.DBNodes
		if cfg.DRWorkers > nodes {
			nodes = cfg.DRWorkers
		}
		nrs := make([]yarn.NodeResources, nodes)
		for i := range nrs {
			nrs[i] = yarn.NodeResources{Cores: cfg.CoresPerNode, MemoryMB: cfg.MemoryMBPerNode}
		}
		rm, err := yarn.New(yarn.Config{
			Nodes:  nrs,
			Queues: map[string]float64{"db": 0.5, "analytics": 0.5},
		})
		if err != nil {
			return nil, err
		}
		s.RM = rm
		// The database acquires resources for long-term use.
		s.dbApp, err = rm.Submit("vertica", "db")
		if err != nil {
			return nil, err
		}
		for n := 0; n < cfg.DBNodes; n++ {
			c, err := s.dbApp.Request(cfg.CoresPerNode/2, cfg.MemoryMBPerNode/2, n, false)
			if err != nil {
				return nil, fmt.Errorf("core: database container on node %d: %w", n, err)
			}
			s.dbContainers = append(s.dbContainers, c)
		}
		// The Distributed R session requests per-session containers with
		// locality preference to the database nodes.
		s.drApp, err = rm.Submit("distributedR", "analytics")
		if err != nil {
			return nil, err
		}
		for w := 0; w < cfg.DRWorkers; w++ {
			c, err := s.drApp.Request(cfg.InstancesPerWorker, 4096*cfg.InstancesPerWorker, w%cfg.DBNodes, false)
			if err != nil {
				s.releaseYARN()
				return nil, fmt.Errorf("core: Distributed R container %d: %w", w, err)
			}
			s.drContainers = append(s.drContainers, c)
		}
	}

	db, err := vertica.Open(vertica.Config{
		Nodes:               cfg.DBNodes,
		UDFInstancesPerNode: cfg.UDFInstancesPerNode,
		Replication:         cfg.Replication,
		BlockRows:           cfg.BlockRows,
		DataDir:             cfg.DataDir,
		Durable:             cfg.Durable,
	})
	if err != nil {
		return nil, err
	}
	drc, err := dr.Start(dr.Config{Workers: cfg.DRWorkers, InstancesPerWorker: cfg.InstancesPerWorker, TaskRetries: cfg.TaskRetries})
	if err != nil {
		return nil, err
	}
	hub := vft.NewHub()
	if err := vft.Register(db, hub); err != nil {
		return nil, err
	}
	// Start owns the session's lifetime; operations after it run under the
	// lifecycle context begin hands out.
	mgr, err := models.NewManager(context.Background(), db)
	if err != nil {
		return nil, err
	}
	s.DB = db
	s.DR = drc
	s.Hub = hub
	s.Models = mgr
	s.ODBC = odbc.NewServer(db, 0)
	if cfg.UseTCPTransfer {
		svc, err := vft.ServeTCP(hub, cfg.DRWorkers)
		if err != nil {
			drc.Shutdown()
			return nil, err
		}
		s.tcp = svc
	}
	return s, nil
}

func (s *Session) releaseYARN() {
	for _, c := range s.drContainers {
		_ = s.drApp.Release(c)
	}
	s.drContainers = nil
	for _, c := range s.dbContainers {
		_ = s.dbApp.Release(c)
	}
	s.dbContainers = nil
}

// begin registers one in-flight operation. It returns a derived context that
// Close cancels, and a done func the operation must call when finished. After
// Close, begin fails fast with an error wrapping verr.ErrClosed.
func (s *Session) begin(ctx context.Context) (context.Context, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, fmt.Errorf("core: session: %w", verr.ErrClosed)
	}
	opCtx, cancel := context.WithCancel(ctx)
	id := s.nextOp
	s.nextOp++
	s.cancels[id] = cancel
	s.inflight.Add(1)
	done := func() {
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
		cancel()
		s.inflight.Done()
	}
	return opCtx, done, nil
}

// Close shuts down the session deterministically: new operations fail fast
// with verr.ErrClosed, in-flight queries are canceled (they stop at their
// next scan-block or chunk boundary) and drained, and only then are the
// Distributed R cluster, TCP listeners and YARN containers released. Safe to
// call concurrently with queries and idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	cancels := make([]context.CancelFunc, 0, len(s.cancels))
	for _, c := range s.cancels {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.inflight.Wait()
	if s.tcp != nil {
		_ = s.tcp.Close()
	}
	s.DR.Shutdown()
	if s.RM != nil {
		s.releaseYARN()
	}
	// Flush and close the write-ahead log last, after every in-flight commit
	// has drained (no-op for in-memory databases).
	_ = s.DB.Close()
}

// Load is the session-level COPY path: it appends a batch to a table under
// the session's lifecycle tracking, and on a durable database the rows are
// WAL-durable before Load returns.
func (s *Session) Load(table string, b *colstore.Batch) error {
	_, done, err := s.begin(context.Background())
	if err != nil {
		return err
	}
	defer done()
	return s.DB.Load(table, b)
}

// Checkpoint materializes the durable database's full state and truncates
// the write-ahead log (an error on non-durable sessions).
func (s *Session) Checkpoint() (uint64, error) {
	_, done, err := s.begin(context.Background())
	if err != nil {
		return 0, err
	}
	defer done()
	return s.DB.Checkpoint()
}

// QueryContext runs SQL against the database (Fig. 3 lines 10–11 use this
// for in-database prediction). Cancellation (from ctx or from Close) is
// honored at scan-block and aggregation-chunk boundaries; the returned error
// then wraps verr.ErrCanceled.
func (s *Session) QueryContext(ctx context.Context, sql string) (*sqlexec.Result, error) {
	opCtx, done, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	return s.DB.QueryContext(opCtx, sql)
}

// RunStatementContext executes an already-parsed statement under the
// session's lifecycle tracking (fail-fast after Close, cancel-on-Close). The
// serving layer uses it to execute cached plans without reparsing.
func (s *Session) RunStatementContext(ctx context.Context, stmt sqlparse.Statement, sql string) (*sqlexec.Result, error) {
	opCtx, done, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	return s.DB.RunStatement(opCtx, stmt, sql)
}

// ExecContext runs SQL discarding results.
func (s *Session) ExecContext(ctx context.Context, sql string) error {
	_, err := s.QueryContext(ctx, sql)
	return err
}

// DB2DFrameContext loads table columns into a distributed data frame via
// Vertica Fast Transfer (§3). Policy is vft.PolicyLocality or
// vft.PolicyUniform; empty selects locality when node counts match, else
// uniform. Cancellation propagates into the export query's scan.
func (s *Session) DB2DFrameContext(ctx context.Context, table string, cols []string, policy string) (*darray.DFrame, *vft.Stats, error) {
	opCtx, done, err := s.begin(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer done()
	if policy == "" {
		if s.DB.NumNodes() == s.DR.NumWorkers() {
			policy = vft.PolicyLocality
		} else {
			policy = vft.PolicyUniform
		}
	}
	rows, err := s.DB.TableRows(table)
	if err != nil {
		return nil, nil, err
	}
	// The paper: partition-size hints = rows / receiving R instances.
	psize := rows / (s.DR.NumWorkers() * s.DR.InstancesPerWorker())
	if s.tcp != nil {
		return vft.LoadTCPContext(opCtx, s.DB, s.DR, s.Hub, s.tcp, table, cols, policy, psize)
	}
	return vft.LoadContext(opCtx, s.DB, s.DR, s.Hub, table, cols, policy, psize)
}

// DB2DArrayContext is Fig. 3 line 5: load numeric feature columns from a
// table into a distributed array.
func (s *Session) DB2DArrayContext(ctx context.Context, table string, cols []string, policy string) (*darray.DArray, *vft.Stats, error) {
	frame, stats, err := s.DB2DFrameContext(ctx, table, cols, policy)
	if err != nil {
		return nil, nil, err
	}
	arr, err := frame.AsDArray(nil)
	if err != nil {
		return nil, nil, err
	}
	return arr, stats, nil
}

// LoadODBCContext is the baseline loader: `connections` parallel ODBC
// sessions each fetching an ordered slice of the table. Cancellation is
// observed per connection between reconnect attempts.
func (s *Session) LoadODBCContext(ctx context.Context, table string, cols []string, connections int) (*darray.DFrame, error) {
	opCtx, done, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	return odbc.LoadContext(opCtx, s.DB, s.ODBC, s.DR, table, cols, connections)
}

// DeployModel is Fig. 3 line 9: serialize a model created in Distributed R
// and store it in the database (DFS blob + R_Models row).
func (s *Session) DeployModel(name, owner, description string, model any) error {
	opCtx, done, err := s.begin(context.Background())
	if err != nil {
		return err
	}
	defer done()
	return s.Models.Deploy(opCtx, name, owner, description, model)
}

// RedeployModel overwrites a deployed model's blob in place (the model
// refresh a serving deployment performs). The owner must match; cached
// deserialized copies are invalidated so no later prediction sees the old
// parameters.
func (s *Session) RedeployModel(name, owner string, model any) error {
	opCtx, done, err := s.begin(context.Background())
	if err != nil {
		return err
	}
	defer done()
	return s.Models.Redeploy(opCtx, name, owner, model)
}

// DB2RDDContext loads table columns through Vertica Fast Transfer and
// exposes them to the Spark comparator as an RDD — the §8 extension showing
// the transfer mechanism is engine-agnostic. The returned RDD shares the
// session's worker data (one RDD partition per frame partition); ctx only
// cancels the transfer, the *spark.Context remains the RDD's owner.
func (s *Session) DB2RDDContext(ctx context.Context, sc *spark.Context, table string, cols []string, policy string) (*spark.RDD, *vft.Stats, error) {
	frame, stats, err := s.DB2DFrameContext(ctx, table, cols, policy)
	if err != nil {
		return nil, nil, err
	}
	rdd, err := spark.FromFrame(sc, frame, cols)
	if err != nil {
		return nil, nil, err
	}
	return rdd, stats, nil
}
