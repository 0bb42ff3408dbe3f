package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vertica"
	"verticadr/internal/wire"
)

var (
	mShardCalls = func(outcome string) *telemetry.Counter {
		return telemetry.Default().Counter("cluster_shard_calls_total", telemetry.L("outcome", outcome))
	}
	mFailovers    = telemetry.Default().Counter("cluster_failovers_total")
	mRetries      = telemetry.Default().Counter("cluster_retries_total")
	mStaleMarks   = telemetry.Default().Counter("cluster_stale_replicas_total")
	mRouterLoads  = telemetry.Default().Counter("cluster_router_load_rows_total")
	mRouterRouted = func(kind string) *telemetry.Counter {
		return telemetry.Default().Counter("cluster_routed_queries_total", telemetry.L("kind", kind))
	}
	mJoins = func(strategy string) *telemetry.Counter {
		return telemetry.Default().Counter("cluster_join_total", telemetry.L("strategy", strategy))
	}
	// mShardCallsLocal counts the shard calls answered in process by the
	// router's own node; each also counts under cluster_shard_calls_total
	// {outcome="ok"}, which counts every answered shard call.
	mShardCallsLocal = telemetry.Default().Counter("cluster_shard_calls_local_total")
)

func gPeerUp(node int) *telemetry.Gauge {
	return telemetry.Default().Gauge("cluster_peer_up", telemetry.L("peer", fmt.Sprint(node)))
}

// Config configures a Router.
type Config struct {
	// Addrs, Shards, Replicas describe the topology (see Topology).
	Addrs    []string
	Shards   int
	Replicas int
	// ProbeInterval paces background health probes of peers marked down
	// (default 250ms; < 0 disables probing).
	ProbeInterval time.Duration
	// DialTimeout bounds each peer connection attempt (default 2s).
	DialTimeout time.Duration
}

// Router owns the cluster topology and fans queries out to the peers. It
// implements server.Frontend, so a vdr-serve peer can put it in front of
// its own TCP listener: any node of the cluster then answers any query
// with cluster-wide results.
//
// Reads (SELECT / PREDICT / EXPLAIN) are idempotent. A router bound to its
// node (NodeExtension) reads the shards that node holds in process, through
// the peer's own serveShards and its admission, and the rest over the wire;
// a shard read that fails on one replica — connection torn down, peer
// draining, admission shed with verr.ErrOverloaded — retries on the shard's
// next replica in ring order, and only when every replica is unusable does
// the query fail, with verr.ErrNodeDown. Writes (COPY / INSERT / DDL) go to
// every replica over the wire; a replica that misses a write is marked stale
// and never read again.
type Router struct {
	topo  Topology
	cfg   Config
	pools []*wire.Pool

	// buildLimit is maxJoinBuildBytes (a field so tests can lower it).
	buildLimit int

	mu    sync.Mutex
	down  []bool
	stale [][]bool // [peer][shard]: true after a missed write
	// tables caches definitions (and splitters) under the catalog epochs
	// last seen per peer (-1: not heard from since it was last down). A
	// reply carrying a newer epoch means DDL ran through another node's
	// router: the cache is dropped and tablesGen moves, which tells a join
	// resolved against the cache to resolve again.
	tables    map[string]*routedTable
	epochs    []int64
	tablesGen uint64
	// node is the peer of the node this router fronts (NodeExtension binds
	// it): its server keeps the node's prepared statements, and it serves
	// the node's own shard replicas in process.
	node   *Peer
	closed bool

	probeWG   sync.WaitGroup
	probeStop chan struct{}
}

// routedTable caches a table's definition and its stateful splitter (the
// round-robin cursor must persist across COPY batches to reproduce the
// single-process engine's row placement).
type routedTable struct {
	def   *catalog.TableDef
	split *catalog.Splitter
}

// NewRouter validates the topology and starts the health prober. It does
// not contact the peers: a cluster whose nodes are still starting becomes
// usable as soon as they are.
func NewRouter(cfg Config) (*Router, error) {
	topo, err := Topology{Addrs: cfg.Addrs, Shards: cfg.Shards, Replicas: cfg.Replicas}.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	r := &Router{
		topo:       topo,
		cfg:        cfg,
		buildLimit: maxJoinBuildBytes,
		down:       make([]bool, len(topo.Addrs)),
		stale:      make([][]bool, len(topo.Addrs)),
		tables:     map[string]*routedTable{},
		epochs:     make([]int64, len(topo.Addrs)),
		probeStop:  make(chan struct{}),
	}
	for i, addr := range topo.Addrs {
		r.pools = append(r.pools, wire.NewPool(addr, cfg.DialTimeout))
		r.stale[i] = make([]bool, topo.Shards)
		r.epochs[i] = -1
		gPeerUp(i).Set(1)
	}
	if cfg.ProbeInterval > 0 {
		r.probeWG.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Topology returns the router's normalized topology.
func (r *Router) Topology() Topology { return r.topo }

// Close stops the prober and closes pooled connections.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.probeStop)
	r.probeWG.Wait()
	for _, p := range r.pools {
		p.Flush()
	}
}

// NodeHealth is one peer's state as the router sees it.
type NodeHealth struct {
	Node   int    `json:"node"`
	Addr   string `json:"addr"`
	Up     bool   `json:"up"`
	Shards []int  `json:"shards"` // shards placed on the peer
	Stale  []int  `json:"stale,omitempty"`
}

// Health reports the per-peer cluster state for the admin surface.
func (r *Router) Health() []NodeHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeHealth, len(r.topo.Addrs))
	for i, addr := range r.topo.Addrs {
		h := NodeHealth{Node: i, Addr: addr, Up: !r.down[i], Shards: r.topo.OwnedShards(i)}
		for s, st := range r.stale[i] {
			if st {
				h.Stale = append(h.Stale, s)
			}
		}
		out[i] = h
	}
	return out
}

func (r *Router) isDown(peer int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down[peer]
}

func (r *Router) markDown(peer int) {
	r.mu.Lock()
	was := r.down[peer]
	r.down[peer] = true
	r.epochs[peer] = -1 // a restarted peer counts its epochs afresh
	r.mu.Unlock()
	if !was {
		// Idle connections to a dead peer are dead too; drop them so the
		// restored peer starts from fresh dials instead of failing calls.
		r.pools[peer].Flush()
		gPeerUp(peer).Set(0)
		mFailovers.Inc()
	}
}

func (r *Router) markUp(peer int) {
	r.mu.Lock()
	r.down[peer] = false
	r.mu.Unlock()
	gPeerUp(peer).Set(1)
}

// markStale permanently excludes one (peer, shard) replica after a missed
// write. There is no replica re-sync in this version: the replica would
// serve short reads, so it must never serve reads again.
func (r *Router) markStale(peer, shard int) {
	r.mu.Lock()
	was := r.stale[peer][shard]
	r.stale[peer][shard] = true
	r.mu.Unlock()
	if !was {
		mStaleMarks.Inc()
	}
}

func (r *Router) isStale(peer, shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stale[peer][shard]
}

// probeLoop pings peers marked down and restores them when they answer.
// A restored peer serves only the shards it never missed a write for
// (stale flags survive the bounce).
func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-ticker.C:
		}
		for peer := range r.pools {
			if !r.isDown(peer) {
				continue
			}
			// Probe over a fresh dial: any idle connection to a peer that
			// was marked down predates the outage and proves nothing.
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DialTimeout)
			c, err := r.pools[peer].Dial()
			if err == nil {
				if err = c.Ping(ctx); err == nil {
					r.pools[peer].Put(c)
					r.markUp(peer)
				} else {
					_ = c.Close()
				}
			}
			cancel()
		}
	}
}

// retryable reports whether a shard-read failure should move to the next
// replica: the peer was unreachable (verr.ErrNodeDown), closing
// (verr.ErrClosed) or shedding (verr.ErrOverloaded). Cancellation and
// genuine query errors propagate.
func retryable(err error) bool {
	if errors.Is(err, verr.ErrCanceled) {
		return false
	}
	return errors.Is(err, verr.ErrNodeDown) || errors.Is(err, verr.ErrClosed) ||
		errors.Is(err, verr.ErrOverloaded)
}

// connFailure reports whether the failure indicates the peer itself is
// unusable (as opposed to merely busy).
func connFailure(err error) bool {
	return errors.Is(err, verr.ErrNodeDown) || errors.Is(err, verr.ErrClosed)
}

// rpc is one extension round trip with a peer: the op, the statement a read
// op carries in the frame header (sql, args), its request payload and the
// bodies behind it, where the reply payload decodes, and recv, which takes
// the reply's schema and bodies. The bodies alias the connection's read
// buffer, so recv runs — decodes or copies them — before the connection goes
// back to the pool.
type rpc struct {
	op         string
	idempotent bool
	sql        string
	args       []any
	payload    any
	bodies     [][]byte
	reply      any
	recv       func(schema colstore.Schema, bodies [][]byte) error
}

func (call *rpc) on(ctx context.Context, c *wire.Client) error {
	req := wire.Request{Op: call.op, SQL: call.sql, Args: call.args}
	return c.CallRequest(ctx, req, call.payload, call.bodies, call.reply, func(resp *wire.Response, bodies [][]byte) error {
		if call.recv == nil {
			return nil
		}
		return call.recv(resp.Schema, bodies)
	})
}

// peerCall makes one round trip with one peer over a pooled connection. A
// failed connection is dropped, not reused.
//
// A pooled connection can be long dead — the peer restarted since it went
// idle — and failing the call on it would misclassify a healthy peer as
// down. So when a *pooled* connection fails, the call retries once on a
// freshly dialed connection (flushing the idle siblings, which predate the
// same restart): always when the request provably never reached the peer
// (wire.RequestNotSent), and on any connection-level failure when the op
// is idempotent. Only the fresh connection's verdict classifies the peer.
func (r *Router) peerCall(ctx context.Context, peer int, call rpc) error {
	c, pooled, err := r.pools[peer].Get()
	if err != nil {
		return err
	}
	err = call.on(ctx, c)
	if err != nil {
		_ = c.Close()
		if !pooled || !(wire.RequestNotSent(err) || (call.idempotent && connFailure(err))) {
			return err
		}
		r.pools[peer].Flush()
		if c, err = r.pools[peer].Dial(); err != nil {
			return err
		}
		if err = call.on(ctx, c); err != nil {
			_ = c.Close()
			return err
		}
	}
	r.pools[peer].Put(c)
	r.sawReply(peer, call.reply)
	return nil
}

// sawReply records the catalog epoch a peer's reply carries. One newer than
// the last seen from that peer means the catalog changed under the cached
// definitions — DDL through another node's router — so they are dropped.
func (r *Router) sawReply(peer int, reply any) {
	er, ok := reply.(epochReply)
	if !ok {
		return
	}
	epoch := int64(er.catalogEpoch())
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.epochs[peer]
	if epoch <= prev {
		return
	}
	r.epochs[peer] = epoch
	if prev >= 0 {
		r.dropTablesLocked()
	}
}

func (r *Router) dropTablesLocked() {
	r.tables = map[string]*routedTable{}
	r.tablesGen++
}

// forget drops the named tables' cached definitions, for a caller that found
// them wanting before any reply could reveal DDL through another router.
func (r *Router) forget(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		delete(r.tables, name)
	}
}

func (r *Router) tableGen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tablesGen
}

// replicas returns the replicas to try for a read of shard, in order: the
// owners not marked down or stale for it, the one on the router's own node
// first — local, that node's peer, is then non-nil — and the rest in ring
// order. One lock covers the whole snapshot.
func (r *Router) replicas(shard int) (order []int, local *Peer) {
	owners := r.topo.Owners(shard)
	r.mu.Lock()
	defer r.mu.Unlock()
	order = owners[:0] // filtered in place: it never grows past the owner read
	for _, peer := range owners {
		if r.down[peer] || r.stale[peer][shard] {
			continue
		}
		order = append(order, peer)
		if r.node != nil && peer == r.node.node {
			copy(order[1:], order[:len(order)-1])
			order[0], local = peer, r.node
		}
	}
	return order, local
}

// shardCall runs req, an idempotent read of one shard (req.Shards), on the
// first of the shard's replicas that answers, and hands the reply's schema
// and bodies to recv. A replica on the router's own node goes first and runs
// in process (localCall); the other owners follow in ring order over the
// network. Peers marked down or stale for the shard are skipped up front,
// and a retryable failure, local or remote, moves on to the next replica.
func (r *Router) shardCall(ctx context.Context, op string, req shardRequest, recv func(schema colstore.Schema, bodies [][]byte) error) error {
	shard := req.Shards[0]
	order, local := r.replicas(shard)
	var rep shardReply
	call := req.rpc(op, &rep, recv)
	var lastErr error
	sawConnFailure := false
	for i, peer := range order {
		if i > 0 {
			mRetries.Inc()
		}
		inProcess := i == 0 && local != nil
		var err error
		if inProcess {
			err = r.localCall(ctx, local, op, req, recv)
		} else {
			err = r.peerCall(ctx, peer, call)
		}
		if err == nil {
			mShardCalls("ok").Inc()
			if inProcess {
				mShardCallsLocal.Inc()
			}
			return nil
		}
		lastErr = err
		if connFailure(err) {
			sawConnFailure = true
			r.markDown(peer)
		}
		if !retryable(err) {
			mShardCalls("error").Inc()
			return err
		}
		mShardCalls("retry").Inc()
	}
	// Every reachable replica shed the read: that is admission back-pressure,
	// not a dead shard. Keep the ErrOverloaded identity so clients back off
	// instead of treating it as a transport failure and failing over (which
	// would turn one overloaded shard into a cross-node retry storm).
	if lastErr != nil && !sawConnFailure && errors.Is(lastErr, verr.ErrOverloaded) {
		mShardCalls("shed").Inc()
		return fmt.Errorf("cluster: shard %d: every replica shedding: %w", shard, lastErr)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no usable replica")
	}
	mShardCalls("down").Inc()
	return fmt.Errorf("cluster: shard %d: %w: %v", shard, verr.ErrNodeDown, lastErr)
}

// localCall is peerCall without the network, for a read of the router's own
// node: req runs through node.serveShards, the function a remote request
// reaches (admission, plan cache, shard view, a join's build overlay), and
// its encoded reply goes through the same recv and sawReply.
func (r *Router) localCall(ctx context.Context, node *Peer, op string, req shardRequest, recv func(schema colstore.Schema, bodies [][]byte) error) error {
	rep, schema, chunk, err := node.serveShards(ctx, op, req)
	if err != nil {
		return err
	}
	if err := recv(schema, [][]byte{chunk}); err != nil {
		return err
	}
	r.sawReply(node.node, rep)
	return nil
}

// fanOut runs fn for every shard concurrently and returns their errors
// joined in shard order. Shard 0 runs on the caller's goroutine, whose stack
// has long grown to what a peer call takes; a fresh goroutine grows its stack
// on every call.
func (r *Router) fanOut(ctx context.Context, fn func(shard int) error) error {
	errs := make([]error, r.topo.Shards)
	var wg sync.WaitGroup
	for s := 1; s < r.topo.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	errs[0] = fn(0)
	wg.Wait()
	return errors.Join(errs...)
}

// eachShard runs req under op on every shard concurrently — each shard on
// the first of its replicas that answers — and hands each reply's schema and
// chunk to fn as the shard's call returns, so the shards' chunks decode side
// by side. The chunk may be a connection's read buffer: fn decodes or copies
// it.
func (r *Router) eachShard(ctx context.Context, op string, req shardRequest, fn func(shard int, schema colstore.Schema, chunk []byte) error) error {
	return r.fanOut(ctx, func(shard int) error {
		req := req
		req.Shards = []int{shard}
		return r.shardCall(ctx, op, req, func(schema colstore.Schema, out [][]byte) error {
			if err := wantBodies(op, out, 1); err != nil {
				return err
			}
			return fn(shard, schema, out[0])
		})
	})
}

// fetch is eachShard decoded: the shards' batches in shard order.
func (r *Router) fetch(ctx context.Context, op string, req shardRequest) ([]*colstore.Batch, error) {
	batches := make([]*colstore.Batch, r.topo.Shards)
	err := r.eachShard(ctx, op, req, func(shard int, schema colstore.Schema, chunk []byte) error {
		b, err := decodeChunk(ctx, chunk, schema)
		if err != nil {
			return fmt.Errorf("cluster: shard %d %s reply: %w", shard, op, err)
		}
		batches[shard] = b
		return nil
	})
	return batches, err
}

func verrCanceled(ctx context.Context) error { return verr.Canceled(ctx.Err()) }

func emptyResult() *sqlexec.Result {
	return &sqlexec.Result{Batch: colstore.NewBatch(colstore.Schema{})}
}

// ---- Frontend: routed SQL ----

var _ server.Frontend = (*Router)(nil)

// Query parses and routes one SQL statement: SELECTs fan out over the
// shards and merge deterministically, INSERTs split by the table's
// segmentation, DDL broadcasts to every peer.
func (r *Router) Query(ctx context.Context, sql string) (*sqlexec.Result, error) {
	if err := verrCanceled(ctx); err != nil {
		return nil, err
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return r.routeSelect(ctx, s, shardRequest{SQL: sql})
	case *sqlparse.Explain:
		return r.routeExplain(ctx, sql, s)
	case *sqlparse.Insert:
		if err := r.routeInsert(ctx, s); err != nil {
			return nil, err
		}
		return emptyResult(), nil
	default:
		if err := r.broadcastExec(ctx, sql, stmt); err != nil {
			return nil, err
		}
		return emptyResult(), nil
	}
}

// nodeServer is the serving layer of the node the router fronts.
func (r *Router) nodeServer() (*server.Server, error) {
	r.mu.Lock()
	node := r.node
	r.mu.Unlock()
	if node == nil {
		return nil, fmt.Errorf("cluster: the router fronts no node to keep prepared statements")
	}
	return node.srv, nil
}

// Prepare registers a SELECT under name in the server of the node the router
// fronts (Server.Prepare), the one place a node keeps statements. No peer
// learns the name: each execution ships the statement's text.
func (r *Router) Prepare(name, sql string) error {
	srv, err := r.nodeServer()
	if err != nil {
		return err
	}
	return srv.Prepare(name, sql)
}

// Execute resolves a prepared statement and binds args through the node's
// server (Server.Prepared) and routes it: the peers get its text and args.
func (r *Router) Execute(ctx context.Context, name string, args ...any) (*sqlexec.Result, error) {
	srv, err := r.nodeServer()
	if err != nil {
		return nil, err
	}
	stmt, text, err := srv.Prepared(ctx, name, args)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("cluster: prepared statement %q is a %T", name, stmt)
	}
	return r.routeSelect(ctx, sel, shardRequest{SQL: text, Args: args})
}

// routeSelect routes sel, the bound statement, as req: every peer runs the
// text and arguments the client sent, so its placeholders bind in source
// order there as here. The router binds and normalizes only for itself: to
// merge, and to read a join's build sides.
func (r *Router) routeSelect(ctx context.Context, sel *sqlparse.Select, req shardRequest) (*sqlexec.Result, error) {
	kind := plan.KindOf(sel)
	switch kind {
	case plan.KindJoin:
		// Still counted under "gather", the label joins have always had: the
		// frozen benchmark/stats.go reads that series for
		// cluster.shard_calls_per_query. cluster_join_total{strategy} says
		// how each joined table actually met the probe side.
		mRouterRouted("gather").Inc()
		return r.joinSelect(ctx, sel, req)
	case plan.KindConst:
		// Constant SELECT: no table, evaluated at the router.
		mRouterRouted("const").Inc()
		return sqlexec.RunSelectCtx(ctx, nil, sel)
	}
	// A single-table statement merges against itself normalized, as each
	// peer normalizes it.
	sel, err := plan.Normalize(sel)
	if err != nil {
		return nil, err
	}
	agg, name := kind == plan.KindAggregate, "rows"
	if agg {
		name = "aggregate"
	}
	mRouterRouted(name).Inc()
	ctx, span := telemetry.StartChildCtx(ctx, "router."+name)
	defer span.End()
	return r.scatter(ctx, sel, agg, req)
}

// scatter runs a normalized statement on every shard — req, with a join's
// broadcast build sides riding along — and merges the answers
// deterministically against sel, the statement the peers run.
//
// A projection / UDTF statement runs whole on each shard (including its
// ORDER BY and LIMIT, which are sound to apply per shard and are re-applied
// globally), then shard outputs concatenate in shard order — or k-way merge
// when ordered, which is bitwise the stable sort of the concatenation. An
// aggregate stops at its partial batch on each shard; the router folds the
// partials in shard order — the distributed continuation of the engine's
// chunk-merge tree — and finalizes (AVG division, ORDER BY, LIMIT) once.
func (r *Router) scatter(ctx context.Context, sel *sqlparse.Select, agg bool, req shardRequest) (*sqlexec.Result, error) {
	if agg {
		parts, err := r.fetch(ctx, opAgg, req)
		if err != nil {
			return nil, err
		}
		return sqlexec.MergeAggPartials(ctx, sel, parts)
	}
	batches, err := r.fetch(ctx, opSelect, req)
	if err != nil {
		return nil, err
	}
	return sqlexec.MergeShardRows(ctx, sel, batches)
}

// routeExplain forwards the EXPLAIN to the first healthy peer, restricted
// to that peer's shards, and prefixes the cluster fan-out header: the
// distributed plan is "route to every shard" above whatever per-shard plan
// the peer's planner picks. A join is resolved exactly as if it ran — build
// sides fetched and shipped with the statement — and the header names how
// each joined table meets the probe side.
func (r *Router) routeExplain(ctx context.Context, sql string, ex *sqlparse.Explain) (*sqlexec.Result, error) {
	req := shardRequest{SQL: sql}
	var joins []string
	if plan.KindOf(ex.Stmt) == plan.KindJoin {
		var span *telemetry.Span
		ctx, span = telemetry.StartChildCtx(ctx, "router.join")
		defer span.End()
		jp, err := r.prepareJoin(ctx, ex.Stmt)
		if err != nil {
			return nil, err
		}
		req.Builds, joins = jp.builds, jp.notes
	}
	var out *colstore.Batch
	peerUsed, err := r.livePeer(ctx, "explain", func(peer int) (rpc, bool) {
		if req.Shards = r.topo.OwnedShards(peer); len(req.Shards) == 0 {
			return rpc{}, false
		}
		return req.rpc(opSelect, &shardReply{}, func(schema colstore.Schema, bodies [][]byte) (err error) {
			if err = wantBodies(opSelect, bodies, 1); err == nil {
				out, err = decodeChunk(ctx, bodies[0], schema)
			}
			return err
		}), true
	})
	if err != nil {
		return nil, err
	}
	if len(out.Cols) != 1 || out.Cols[0].Type != colstore.TypeString {
		return nil, fmt.Errorf("cluster: malformed explain reply from node %d", peerUsed)
	}
	lines := []string{fmt.Sprintf("Cluster Route  (shards=%d peers=%d replicas=%d)", r.topo.Shards, len(r.topo.Addrs), r.topo.Replicas)}
	for _, j := range joins {
		lines = append(lines, "  "+j)
	}
	lines = append(lines, fmt.Sprintf("  per-shard plan from node %d (shards %v):", peerUsed, req.Shards))
	for _, line := range out.Cols[0].Strs {
		lines = append(lines, "  "+line)
	}
	out.Cols[0] = colstore.StringVector(lines)
	return &sqlexec.Result{Batch: out}, nil
}

// livePeer makes one call with the first peer, in order, that answers it:
// peers marked down are skipped, and so is a peer call declines to make. A
// connection failure marks its peer down and moves on; any other error
// returns. When no peer answered, the error is verr.ErrNodeDown, naming
// what failed and the last peer's error.
func (r *Router) livePeer(ctx context.Context, what string, call func(peer int) (rpc, bool)) (int, error) {
	var lastErr error
	for peer := range r.pools {
		if r.isDown(peer) {
			continue
		}
		c, ok := call(peer)
		if !ok {
			continue
		}
		err := r.peerCall(ctx, peer, c)
		if err == nil {
			return peer, nil
		}
		lastErr = err
		if !connFailure(err) {
			return -1, err
		}
		r.markDown(peer)
	}
	return -1, fmt.Errorf("cluster: %s: %w: %v", what, verr.ErrNodeDown, lastErr)
}

// ---- Writes ----

// table resolves (and caches) a table's definition and splitter. The
// definition comes from any live peer — the catalog is broadcast-
// replicated, so all agree.
func (r *Router) table(ctx context.Context, name string) (*routedTable, error) {
	r.mu.Lock()
	rt := r.tables[name]
	r.mu.Unlock()
	if rt != nil {
		return rt, nil
	}
	var rep tableDefReply
	from, err := r.livePeer(ctx, fmt.Sprintf("tabledef %q", name), func(int) (rpc, bool) {
		return rpc{op: opTableDef, idempotent: true, payload: tableDefRequest{Table: name}, reply: &rep}, true
	})
	if err != nil {
		return nil, err
	}
	def := &rep.TableDef
	split, err := catalog.NewSplitter(def.Seg, def.Schema, r.topo.Shards)
	if err != nil {
		return nil, err
	}
	rt = &routedTable{def: def, split: split}
	r.mu.Lock()
	if cached := r.tables[name]; cached != nil {
		rt = cached // lost a race; keep the first splitter (cursor state)
	} else if r.epochs[from] == int64(rep.Epoch) {
		// Cached only while no reply has shown the peer past the epoch the
		// definition was read at.
		r.tables[name] = rt
	}
	r.mu.Unlock()
	return rt, nil
}

// withTable runs f on the table's cached definition and, when f fails, once
// more on a freshly fetched one: the cache may predate DDL that ran through
// another node's router and that no reply has revealed yet. f must have no
// effect when it fails.
func (r *Router) withTable(ctx context.Context, name string, f func(*routedTable) error) error {
	rt, err := r.table(ctx, name)
	if err != nil {
		return err
	}
	if err = f(rt); err == nil {
		return nil
	}
	r.forget(name)
	if rt, ferr := r.table(ctx, name); ferr == nil {
		err = f(rt)
	}
	return err
}

// errRefused is a replica's refusal of a load split under a segmentation
// that is no longer the table's.
var errRefused = errors.New("split under a stale segmentation")

// Load splits a COPY batch by the table's segmentation — with the same
// stateful splitter the single-process engine uses, so row placement is
// identical — and writes each shard part to every replica. A replica that
// misses its write is marked stale; the load succeeds as long as every
// shard keeps at least one current replica.
//
// Placement is load-bearing — a co-located join reads a key's rows only on
// the shard its hash names — so every write carries the hash column it was
// split by, and a peer whose table is segmented otherwise (the router's
// definition is stale) refuses it. A load that nobody applied and somebody
// refused is split again under fresh definitions, once.
func (r *Router) Load(ctx context.Context, table string, b *colstore.Batch) error {
	ctx, span := telemetry.StartChildCtx(ctx, "router.load")
	defer span.End()
	mRouterLoads.Add(int64(b.Len()))
	applied, refused, err := r.loadOnce(ctx, table, b)
	if applied == 0 && refused > 0 {
		r.forget(table)
		_, _, err = r.loadOnce(ctx, table, b)
	}
	return err
}

// loadOnce is one attempt of Load; it also reports how many replica writes
// were applied and how many refused.
func (r *Router) loadOnce(ctx context.Context, table string, b *colstore.Batch) (applied, refused int64, err error) {
	rt, err := r.table(ctx, table)
	if err != nil {
		return 0, 0, err
	}
	r.mu.Lock()
	parts, err := rt.split.SplitOwned(b)
	r.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	var nApplied, nRefused atomic.Int64
	err = r.fanOut(ctx, func(shard int) error {
		part := parts[shard]
		if part == nil || part.Len() == 0 {
			return nil
		}
		chunk, err := encodeChunk(ctx, part)
		if err != nil {
			return err
		}
		req := loadRequest{Table: table, Shard: shard, HashCol: hashCol(rt.def)}
		owners := r.topo.Owners(shard)
		okCount := 0
		var lastErr error
		var wg sync.WaitGroup
		results := make([]error, len(owners))
		for i, peer := range owners {
			if r.isStale(peer, shard) {
				results[i] = fmt.Errorf("stale")
				continue
			}
			wg.Add(1)
			go func(i, peer int) {
				defer wg.Done()
				var rep loadReply
				results[i] = r.peerCall(ctx, peer, rpc{op: opLoad, payload: req, bodies: [][]byte{chunk}, reply: &rep})
				if results[i] == nil && rep.Refused {
					results[i] = errRefused
					nRefused.Add(1)
				}
			}(i, peer)
		}
		wg.Wait()
		for _, err := range results {
			if err == nil {
				okCount++
			}
		}
		nApplied.Add(int64(okCount))
		for i, peer := range owners {
			err := results[i]
			if err == nil || r.isStale(peer, shard) {
				continue
			}
			lastErr = err
			if connFailure(err) {
				r.markDown(peer)
			}
			if okCount == 0 {
				// No replica applied the batch — a canceled or failed-
				// everywhere load leaves the replicas mutually consistent.
				// The caller gets the error below; retiring every replica
				// here would brick the shard without any divergence.
				continue
			}
			// A sibling applied the write and this replica missed it (or
			// its outcome is unknown) — even ErrCanceled counts, since the
			// cancellation raced a sibling's success: reading this replica
			// could serve short results, so retire it.
			r.markStale(peer, shard)
		}
		if okCount == 0 {
			if lastErr != nil && errors.Is(lastErr, verr.ErrCanceled) {
				return fmt.Errorf("cluster: load shard %d of %q: %w", shard, table, lastErr)
			}
			if lastErr == nil {
				lastErr = fmt.Errorf("no usable replica")
			}
			return fmt.Errorf("cluster: load shard %d of %q: every replica failed: %w: %v",
				shard, table, verr.ErrNodeDown, lastErr)
		}
		return nil
	})
	return nApplied.Load(), nRefused.Load(), err
}

// routeInsert splits INSERT rows exactly like Load.
func (r *Router) routeInsert(ctx context.Context, ins *sqlparse.Insert) error {
	var b *colstore.Batch
	err := r.withTable(ctx, ins.Table, func(rt *routedTable) (err error) {
		b, err = vertica.InsertBatch(rt.def, ins)
		return err
	})
	if err != nil {
		return err
	}
	return r.Load(ctx, ins.Table, b)
}

// broadcastExec runs a DDL statement on every peer. DDL requires the whole
// cluster reachable — catalogs must not diverge — so any failure aborts
// with an error (peers already updated stay updated; re-issuing the DDL is
// the operator's recovery path, matching the idempotency of CREATE/DROP
// pairs).
func (r *Router) broadcastExec(ctx context.Context, sql string, stmt sqlparse.Statement) error {
	ctx, span := telemetry.StartChildCtx(ctx, "router.ddl")
	defer span.End()
	mRouterRouted("ddl").Inc()
	errs := make([]error, len(r.pools))
	var wg sync.WaitGroup
	for peer := range r.pools {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var rep execReply
			errs[peer] = r.peerCall(ctx, peer, rpc{op: opExec, payload: execRequest{SQL: sql}, reply: &rep})
		}(peer)
	}
	wg.Wait()
	// DDL invalidates cached definitions and splitters.
	r.mu.Lock()
	r.dropTablesLocked()
	r.mu.Unlock()
	for peer, err := range errs {
		if err != nil && connFailure(err) {
			r.markDown(peer)
		}
	}
	return errors.Join(errs...)
}
