package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
	"verticadr/internal/vertica"
	"verticadr/internal/vft"
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
// Reads (SELECT / PREDICT / EXPLAIN) are idempotent: a shard read that
// fails on one replica — connection torn down, peer draining, admission
// shed with verr.ErrOverloaded — retries on the shard's next replica, and
// only when every replica is unusable does the query fail, with
// verr.ErrNodeDown. Writes (COPY / INSERT / DDL) go to every replica; a
// replica that misses a write is marked stale and never read again.
type Router struct {
	topo  Topology
	cfg   Config
	pools []*pool

	mu       sync.Mutex
	down     []bool
	stale    [][]bool // [peer][shard]: true after a missed write
	tables   map[string]*routedTable
	prepared map[string]*sqlparse.Select
	closed   bool

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
		topo:      topo,
		cfg:       cfg,
		down:      make([]bool, len(topo.Addrs)),
		stale:     make([][]bool, len(topo.Addrs)),
		tables:    map[string]*routedTable{},
		prepared:  map[string]*sqlparse.Select{},
		probeStop: make(chan struct{}),
	}
	for i, addr := range topo.Addrs {
		r.pools = append(r.pools, &pool{addr: addr, dialTimeout: cfg.DialTimeout})
		r.stale[i] = make([]bool, topo.Shards)
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
		p.closeAll()
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
	r.mu.Unlock()
	if !was {
		// Idle connections to a dead peer are dead too; drop them so the
		// restored peer starts from fresh dials instead of failing calls.
		r.pools[peer].flush()
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
			c, err := r.pools[peer].dial()
			if err == nil {
				if err = c.Ping(ctx); err == nil {
					r.pools[peer].put(c)
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

// peerCall round-trips one extension op on one peer over a pooled
// connection. A failed connection is dropped, not reused.
//
// A pooled connection can be long dead — the peer restarted since it went
// idle — and failing the call on it would misclassify a healthy peer as
// down. So when a *pooled* connection fails, the call retries once on a
// freshly dialed connection (flushing the idle siblings, which predate the
// same restart): always when the request provably never reached the peer
// (server.RequestNotSent), and on any connection-level failure when the op
// is idempotent. Only the fresh connection's verdict classifies the peer.
func (r *Router) peerCall(ctx context.Context, peer int, op string, idempotent bool, payload, reply any) error {
	c, pooled, err := r.pools[peer].get()
	if err != nil {
		return err
	}
	err = c.Call(ctx, op, payload, reply)
	if err == nil {
		r.pools[peer].put(c)
		return nil
	}
	_ = c.Close()
	if pooled && (server.RequestNotSent(err) || (idempotent && connFailure(err))) {
		r.pools[peer].flush()
		c2, err2 := r.pools[peer].dial()
		if err2 != nil {
			return err2
		}
		if err2 := c2.Call(ctx, op, payload, reply); err2 != nil {
			_ = c2.Close()
			return err2
		}
		r.pools[peer].put(c2)
		return nil
	}
	return err
}

// shardCall runs an idempotent read against shard's replicas in ring
// order, failing over on retryable errors. Peers marked down or stale for
// this shard are skipped up front.
func (r *Router) shardCall(ctx context.Context, shard int, op string, payload, reply any) error {
	var lastErr error
	tried, sawConnFailure := 0, false
	for _, peer := range r.topo.Owners(shard) {
		if r.isStale(peer, shard) {
			continue
		}
		if r.isDown(peer) {
			continue
		}
		if tried > 0 {
			mRetries.Inc()
		}
		tried++
		err := r.peerCall(ctx, peer, op, true, payload, reply)
		if err == nil {
			mShardCalls("ok").Inc()
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

// fanOut runs fn for every shard concurrently and returns the first error.
func (r *Router) fanOut(ctx context.Context, fn func(shard int) error) error {
	errs := make([]error, r.topo.Shards)
	var wg sync.WaitGroup
	for s := 0; s < r.topo.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// batch decodes the reply's chunk under the schema it carries.
func (rep *shardReply) batch() (*colstore.Batch, error) {
	return vft.DecodeChunk(rep.Chunk, rep.Schema)
}

// fetch runs sql under op on every shard concurrently — each shard on the
// first of its replicas that answers — and returns the shards' batches in
// shard order.
func (r *Router) fetch(ctx context.Context, op, sql string) ([]*colstore.Batch, error) {
	batches := make([]*colstore.Batch, r.topo.Shards)
	err := r.fanOut(ctx, func(shard int) error {
		var rep shardReply
		if err := r.shardCall(ctx, shard, op, shardRequest{SQL: sql, Shards: []int{shard}}, &rep); err != nil {
			return err
		}
		b, err := rep.batch()
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
		return r.routeSelect(ctx, s)
	case *sqlparse.Explain:
		return r.routeExplain(ctx, sql)
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

// Prepare parses and stores a SELECT template locally; Execute binds and
// routes it. Preparation is router-side (each peer re-parses the bound
// SQL), so prepared names need not exist on any peer.
func (r *Router) Prepare(name, sql string) error {
	if name == "" {
		return fmt.Errorf("cluster: empty statement name")
	}
	sel, err := parseSelect(sql)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.prepared[name] = sel
	r.mu.Unlock()
	return nil
}

// Execute binds args to a prepared SELECT and routes it.
func (r *Router) Execute(ctx context.Context, name string, args ...any) (*sqlexec.Result, error) {
	r.mu.Lock()
	sel := r.prepared[name]
	r.mu.Unlock()
	if sel == nil {
		return nil, fmt.Errorf("cluster: no prepared statement %q", name)
	}
	bound, err := sqlparse.BindSelect(sel, args)
	if err != nil {
		return nil, err
	}
	return r.routeSelect(ctx, bound)
}

// shardSQL renders the statement sent to peers: identical to the client's
// statement minus PROFILE (profiles are per-process; the router's merge is
// not an engine operator pipeline).
func shardSQL(sel *sqlparse.Select) string {
	cp := *sel
	cp.Profile = false
	return cp.String()
}

func (r *Router) routeSelect(ctx context.Context, sel *sqlparse.Select) (*sqlexec.Result, error) {
	kind := plan.KindOf(sel)
	switch kind {
	case plan.KindJoin:
		mRouterRouted("gather").Inc()
		return r.gatherSelect(ctx, sel)
	case plan.KindConst:
		// Constant SELECT: no table, evaluated at the router.
		mRouterRouted("const").Inc()
		return sqlexec.RunSelectCtx(ctx, nil, sel)
	}
	// A single-table statement is merged against what the peers executed:
	// normalized once here, shipped in that form.
	sel, err := plan.Normalize(sel)
	if err != nil {
		return nil, err
	}
	if kind == plan.KindAggregate {
		mRouterRouted("aggregate").Inc()
		return r.aggSelect(ctx, sel)
	}
	mRouterRouted("rows").Inc()
	return r.rowsSelect(ctx, sel)
}

// rowsSelect fans a projection / UDTF statement out per shard and merges:
// every shard runs the statement (including its ORDER BY and LIMIT, which
// are sound to apply per shard and are re-applied globally), then shard
// outputs concatenate in shard order — or k-way merge when ordered, which
// is bitwise the stable sort of the concatenation.
func (r *Router) rowsSelect(ctx context.Context, sel *sqlparse.Select) (*sqlexec.Result, error) {
	ctx, span := telemetry.StartChildCtx(ctx, "router.rows")
	defer span.End()
	batches, err := r.fetch(ctx, opSelect, shardSQL(sel))
	if err != nil {
		return nil, err
	}
	return sqlexec.MergeShardRows(ctx, sel, batches)
}

// aggSelect fans an aggregate out per shard, collecting partial batches,
// and folds them in shard order — the distributed continuation of the
// engine's chunk-merge tree, finalized (AVG division, ORDER BY, LIMIT)
// once at the router.
func (r *Router) aggSelect(ctx context.Context, sel *sqlparse.Select) (*sqlexec.Result, error) {
	ctx, span := telemetry.StartChildCtx(ctx, "router.aggregate")
	defer span.End()
	parts, err := r.fetch(ctx, opAgg, shardSQL(sel))
	if err != nil {
		return nil, err
	}
	return sqlexec.MergeAggPartials(ctx, sel, parts)
}

// gatherDB is the router-side fallback database for statements without a
// distributed execution (joins): whole tables gathered shard by shard and
// rebuilt as one local segment per shard, in shard order, which reproduces
// the row order — and therefore the bitwise results — of the single-
// process engine.
type gatherDB struct {
	defs map[string]*catalog.TableDef
	segs map[string][]*colstore.Segment
	udfs *udf.Registry
}

func (g *gatherDB) TableDef(name string) (*catalog.TableDef, error) {
	def, ok := g.defs[name]
	if !ok {
		return nil, fmt.Errorf("cluster: %w: %q", verr.ErrTableNotFound, name)
	}
	return def, nil
}

func (g *gatherDB) Segments(name string) ([]*colstore.Segment, error) {
	segs, ok := g.segs[name]
	if !ok {
		return nil, fmt.Errorf("cluster: %w: %q", verr.ErrTableNotFound, name)
	}
	return segs, nil
}

func (g *gatherDB) UDFs() *udf.Registry      { return g.udfs }
func (g *gatherDB) UDFInstancesPerNode() int { return 4 }
func (g *gatherDB) Services() map[string]any { return nil }

var _ sqlexec.Database = (*gatherDB)(nil)

// gatherSelect executes a join at the router over gathered tables. The
// shard fetches are the same failover-capable reads as any SELECT.
func (r *Router) gatherSelect(ctx context.Context, sel *sqlparse.Select) (*sqlexec.Result, error) {
	ctx, span := telemetry.StartChildCtx(ctx, "router.gather")
	defer span.End()
	names := []string{sel.From}
	for _, j := range sel.Joins {
		names = append(names, j.Table)
	}
	g := &gatherDB{
		defs: map[string]*catalog.TableDef{},
		segs: map[string][]*colstore.Segment{},
		udfs: udf.NewRegistry(),
	}
	for _, name := range names {
		if _, ok := g.defs[name]; ok {
			continue
		}
		rt, err := r.table(ctx, name)
		if err != nil {
			return nil, err
		}
		batches, err := r.fetch(ctx, opSelect, "SELECT * FROM "+name)
		if err != nil {
			return nil, err
		}
		segs := make([]*colstore.Segment, len(batches))
		err = r.fanOut(ctx, func(shard int) error {
			segs[shard] = colstore.NewSegment(rt.def.Schema, 0)
			return segs[shard].Append(batches[shard])
		})
		if err != nil {
			return nil, err
		}
		g.defs[name] = rt.def
		g.segs[name] = segs
	}
	return sqlexec.RunSelectCtx(ctx, g, sel)
}

// routeExplain forwards the EXPLAIN to the first healthy peer, restricted
// to that peer's shards, and prefixes the cluster fan-out header: the
// distributed plan is "route to every shard" above whatever per-shard plan
// the peer's planner picks.
func (r *Router) routeExplain(ctx context.Context, sql string) (*sqlexec.Result, error) {
	var rep shardReply
	var peerUsed int
	var lastErr error
	done := false
	for peer := range r.pools {
		if r.isDown(peer) {
			continue
		}
		shards := r.topo.OwnedShards(peer)
		if len(shards) == 0 {
			continue
		}
		err := r.peerCall(ctx, peer, opSelect, true, shardRequest{SQL: sql, Shards: shards}, &rep)
		if err == nil {
			peerUsed, done = peer, true
			break
		}
		lastErr = err
		if connFailure(err) {
			r.markDown(peer)
			continue
		}
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("cluster: explain: %w: %v", verr.ErrNodeDown, lastErr)
	}
	out, err := rep.batch()
	if err != nil {
		return nil, err
	}
	if len(out.Cols) != 1 || out.Cols[0].Type != colstore.TypeString {
		return nil, fmt.Errorf("cluster: malformed explain reply from node %d", peerUsed)
	}
	lines := []string{
		fmt.Sprintf("Cluster Route  (shards=%d peers=%d replicas=%d)", r.topo.Shards, len(r.topo.Addrs), r.topo.Replicas),
		fmt.Sprintf("  per-shard plan from node %d (shards %v):", peerUsed, r.topo.OwnedShards(peerUsed)),
	}
	for _, line := range out.Cols[0].Strs {
		lines = append(lines, "  "+line)
	}
	out.Cols[0] = colstore.StringVector(lines)
	return &sqlexec.Result{Batch: out}, nil
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
	var def *catalog.TableDef
	var lastErr error
	found := false
	for peer := range r.pools {
		if r.isDown(peer) {
			continue
		}
		var d catalog.TableDef
		err := r.peerCall(ctx, peer, opTableDef, true, tableDefRequest{Table: name}, &d)
		if err == nil {
			def, found = &d, true
			break
		}
		lastErr = err
		if connFailure(err) {
			r.markDown(peer)
			continue
		}
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("cluster: tabledef %q: %w: %v", name, verr.ErrNodeDown, lastErr)
	}
	split, err := catalog.NewSplitter(def.Seg, def.Schema, r.topo.Shards)
	if err != nil {
		return nil, err
	}
	rt = &routedTable{def: def, split: split}
	r.mu.Lock()
	if cached := r.tables[name]; cached != nil {
		rt = cached // lost a race; keep the first splitter (cursor state)
	} else {
		r.tables[name] = rt
	}
	r.mu.Unlock()
	return rt, nil
}

// Load splits a COPY batch by the table's segmentation — with the same
// stateful splitter the single-process engine uses, so row placement is
// identical — and writes each shard part to every replica. A replica that
// misses its write is marked stale; the load succeeds as long as every
// shard keeps at least one current replica.
func (r *Router) Load(ctx context.Context, table string, b *colstore.Batch) error {
	ctx, span := telemetry.StartChildCtx(ctx, "router.load")
	defer span.End()
	rt, err := r.table(ctx, table)
	if err != nil {
		return err
	}
	r.mu.Lock()
	parts, err := rt.split.SplitOwned(b)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	mRouterLoads.Add(int64(b.Len()))
	return r.fanOut(ctx, func(shard int) error {
		part := parts[shard]
		if part == nil || part.Len() == 0 {
			return nil
		}
		chunk, err := vft.EncodeChunk(part)
		if err != nil {
			return err
		}
		req := loadRequest{Table: table, Shard: shard, Chunk: chunk}
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
				results[i] = r.peerCall(ctx, peer, opLoad, false, req, &rep)
			}(i, peer)
		}
		wg.Wait()
		for _, err := range results {
			if err == nil {
				okCount++
			}
		}
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
}

// routeInsert splits INSERT rows exactly like Load.
func (r *Router) routeInsert(ctx context.Context, ins *sqlparse.Insert) error {
	rt, err := r.table(ctx, ins.Table)
	if err != nil {
		return err
	}
	b, err := vertica.InsertBatch(rt.def, ins)
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
			errs[peer] = r.peerCall(ctx, peer, opExec, false, execRequest{SQL: sql}, &rep)
		}(peer)
	}
	wg.Wait()
	// DDL invalidates cached definitions and splitters.
	r.mu.Lock()
	r.tables = map[string]*routedTable{}
	r.mu.Unlock()
	for peer, err := range errs {
		if err != nil && connFailure(err) {
			r.markDown(peer)
		}
	}
	return errors.Join(errs...)
}
