// Package server is the concurrent query-serving layer over a core.Session —
// the deployment the paper's §5 prediction pipeline implies but never builds:
// many clients issuing PREDICT queries against deployed models at once. It
// adds what a single-user session lacks:
//
//   - a bounded LRU plan cache (parse, validate and plan once, bind ?
//     placeholders into the plan per execution), the one template store: a
//     one-shot query, a named prepared statement (kept as its text) and a
//     cluster peer's shard statement (the text the client sent) all resolve
//     their text through it,
//   - a shared deserialized-model cache (internal/models) so concurrent
//     predictions stop paying one gob decode per UDF instance per query,
//   - admission control: a concurrency limiter plus a bounded wait queue
//     with a queue-wait deadline, shedding load with verr.ErrOverloaded
//     instead of collapsing under it — one for the statements clients send,
//     routed or not, and one for the shard reads a cluster peer serves,
//   - per-query cancellation and deadlines, honored at scan-block and
//     aggregation-chunk boundaries inside the engine.
package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/core"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

var (
	gInflight   = telemetry.Default().Gauge("server_inflight")
	gQueueDepth = telemetry.Default().Gauge("server_queue_depth")
	hWait       = telemetry.Default().Histogram("server_wait_seconds", nil)
	hQuery      = telemetry.Default().Histogram("server_query_seconds", nil)
)

func mOutcome(outcome string) *telemetry.Counter {
	return telemetry.Default().Counter("server_queries_total", telemetry.L("outcome", outcome))
}

// Config tunes the serving layer.
type Config struct {
	// MaxConcurrent bounds queries executing at once (default 8).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for an execution slot; arrivals beyond
	// it are refused immediately with verr.ErrOverloaded (default 64).
	MaxQueue int
	// QueueWait bounds how long an admitted query may wait for a slot before
	// being shed with verr.ErrOverloaded (default 2s).
	QueueWait time.Duration
	// QueryTimeout, when positive, caps each query's execution time; the
	// engine observes the deadline at block boundaries (default: none).
	QueryTimeout time.Duration
	// PlanCacheSize bounds the plan LRU (default 128).
	PlanCacheSize int
	// StmtStatsSize bounds how many distinct statement fingerprints the
	// per-statement statistics track before evicting the least recently
	// executed (default 256).
	StmtStatsSize int
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
}

// Server serves concurrent queries over one session. Every SQL statement a
// client sends runs through its Query or Execute, under the front door's
// admission (the embedded gate); a clustered node's router executes what
// they resolved (WithFrontend). Shard reads a cluster peer serves take the
// other gate (Admit).
type Server struct {
	sess *core.Session
	cfg  Config

	gate         // the front door: Query and Execute
	shards  gate // shard reads: Admit
	closed  atomic.Bool
	routing atomic.Pointer[Frontend] // bound by WithFrontend

	plans *planCache
	stmts *StmtStats

	mu       sync.Mutex
	prepared map[string]string // name -> text; the plan cache holds its parse
}

// New builds a serving layer over sess.
func New(sess *core.Session, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		sess:     sess,
		cfg:      cfg,
		plans:    newPlanCache(cfg.PlanCacheSize),
		stmts:    newStmtStats(cfg.StmtStatsSize),
		prepared: map[string]string{},
	}
	s.gate.init(cfg, &s.closed)
	s.shards.init(cfg, &s.closed)
	return s
}

// Session exposes the underlying session.
func (s *Server) Session() *core.Session { return s.sess }

// Statements exposes the per-statement statistics (calls, error codes,
// latency quantiles per normalized SQL fingerprint).
func (s *Server) Statements() *StmtStats { return s.stmts }

// Health is an instantaneous admission-control reading of the front door.
type Health struct {
	Closed        bool  `json:"closed"`
	Inflight      int64 `json:"inflight"`
	Queued        int64 `json:"queued"`
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
	// Saturated means a query arriving now would be refused immediately:
	// every execution slot and every queue slot is taken.
	Saturated bool `json:"saturated"`
}

// Health reports whether the server can currently admit a client's
// statement.
func (s *Server) Health() Health {
	h := Health{
		Closed:        s.closed.Load(),
		Inflight:      s.running.Load(),
		Queued:        s.queued.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		MaxQueue:      s.cfg.MaxQueue,
	}
	h.Saturated = h.Closed || (h.Inflight >= int64(h.MaxConcurrent) && h.Queued >= int64(h.MaxQueue))
	return h
}

// Close marks the server closed; new requests fail fast with verr.ErrClosed.
// It does not close the underlying session — the session owner does that
// (core.Session.Close itself drains in-flight queries).
func (s *Server) Close() { s.closed.Store(true) }

// normalize is the statement-fingerprint function: whitespace-insensitive at
// the statement edges, semicolon-insensitive at the end.
func normalize(sql string) string {
	return strings.TrimRight(strings.TrimSpace(sql), "; \t\n")
}

// cacheKey is the plan-cache key: the normalized SQL prefixed with the
// database's catalog epoch. Every DDL apply (CREATE/DROP TABLE, CREATE/DROP
// INDEX) bumps the epoch, so cached plans from before the DDL miss instead
// of executing against access paths or schemas that no longer exist; the
// stale entries age out of the LRU on their own.
func (s *Server) cacheKey(normalized string) string {
	var epoch uint64
	if s.sess.DB != nil {
		epoch = s.sess.DB.CatalogEpoch()
	}
	return strconv.FormatUint(epoch, 10) + "|" + normalized
}

// gate is one admission queue: at most MaxConcurrent holders at once and at
// most MaxQueue waiting, each for at most QueueWait. A server has two, sized
// alike: a client's statement holds a front-door slot while the router reads
// shards under the shard gate, so no slot ever waits on a slot of its own
// kind and a node routing to itself cannot deadlock.
type gate struct {
	sem      chan struct{}
	queued   atomic.Int64
	running  atomic.Int64
	maxQueue int
	wait     time.Duration
	closed   *atomic.Bool
}

func (g *gate) init(cfg Config, closed *atomic.Bool) {
	g.sem = make(chan struct{}, cfg.MaxConcurrent)
	g.maxQueue, g.wait, g.closed = cfg.MaxQueue, cfg.QueueWait, closed
}

// acquire returns a release func once the caller holds a slot, or a typed
// error: verr.ErrOverloaded when the queue is full or the queue-wait
// deadline passes, verr.ErrCanceled when ctx ends first, verr.ErrClosed
// after Close. A traced context gets a server.admit span.
func (g *gate) acquire(ctx context.Context) (func(), error) {
	admit := telemetry.SpanFromContext(ctx).StartChild("server.admit")
	if g.closed.Load() {
		admit.SetAttr("outcome", "closed")
		admit.End()
		return nil, fmt.Errorf("server: %w", verr.ErrClosed)
	}
	grant := func() func() {
		admit.SetAttr("outcome", "ok")
		admit.End()
		gInflight.Add(1)
		g.running.Add(1)
		return func() {
			gInflight.Add(-1)
			g.running.Add(-1)
			<-g.sem
		}
	}
	// Fast path: free slot, no queueing.
	select {
	case g.sem <- struct{}{}:
		return grant(), nil
	default:
	}
	// Bounded wait queue: refuse immediately when full.
	if g.queued.Add(1) > int64(g.maxQueue) {
		g.queued.Add(-1)
		mOutcome("overloaded").Inc()
		admit.SetAttr("outcome", "queue_full")
		admit.End()
		return nil, fmt.Errorf("server: wait queue full (%d): %w", g.maxQueue, verr.ErrOverloaded)
	}
	admit.SetAttr("queued", "true")
	gQueueDepth.Add(1)
	start := time.Now()
	defer func() {
		gQueueDepth.Add(-1)
		g.queued.Add(-1)
		hWait.Observe(time.Since(start).Seconds())
	}()
	timer := time.NewTimer(g.wait)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		return grant(), nil
	case <-timer.C:
		mOutcome("overloaded").Inc()
		admit.SetAttr("outcome", "queue_wait_exceeded")
		admit.End()
		return nil, fmt.Errorf("server: queue wait exceeded %v: %w", g.wait, verr.ErrOverloaded)
	case <-ctx.Done():
		mOutcome("canceled").Inc()
		admit.SetAttr("outcome", "canceled")
		admit.End()
		return nil, verr.Canceled(ctx.Err())
	}
}

// run executes fn under one of the server's gates, the configured query
// timeout, outcome accounting and, for a client's statement q, the
// per-statement statistics. A traced context gets server.admit and
// server.exec child spans; the engine and the router hang theirs under the
// latter, which carries how q's plan was had (plan=generic|custom).
func (s *Server) run(ctx context.Context, g *gate, q *Query, fn func(ctx context.Context) (*sqlexec.Result, error)) (*sqlexec.Result, error) {
	release, err := g.acquire(ctx)
	if err != nil {
		if q != nil {
			s.stmts.record(q.fingerprint, "", 0, err)
		}
		return nil, err
	}
	defer release()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	execCtx, execSpan := telemetry.StartChildCtx(ctx, "server.exec")
	start := time.Now()
	res, err := fn(execCtx)
	elapsed := time.Since(start)
	if q != nil && q.Plan != "" && execSpan != nil {
		path := q.Plan
		if path == PlanRebuilt {
			path = PlanGeneric // what ran is the generic plan, built anew
		}
		execSpan.SetAttr("plan", path)
	}
	execSpan.End()
	hQuery.Observe(elapsed.Seconds())
	if q != nil {
		s.stmts.record(q.fingerprint, q.Plan, elapsed, err)
	}
	switch {
	case err == nil:
		mOutcome("ok").Inc()
	case verr.Code(err) == verr.CodeCanceled:
		mOutcome("canceled").Inc()
	default:
		mOutcome("error").Inc()
	}
	return res, err
}

// Admit runs fn under the shard gate — its own slots and queue, sized like
// the front door's, with the same queue-wait deadline and query timeout.
// Protocol extensions (the cluster peer's shard reads) use it, so shard work
// queues and sheds like a client's statement: a saturated peer answers
// verr.ErrOverloaded and the router retries the shard on a replica. It
// records nothing in the per-statement statistics: the statement a shard
// read serves is recorded once, by the node that took it from its client.
func (s *Server) Admit(ctx context.Context, fn func(ctx context.Context) (*sqlexec.Result, error)) (*sqlexec.Result, error) {
	return s.run(ctx, &s.shards, nil, fn)
}

// Prepare parses and validates sql (a SELECT, possibly with ? placeholders)
// and registers its text under name; the parse goes into the plan cache,
// where Execute finds it as Query does and every cluster peer finds the
// same text, so prepared executions count in server_plan_cache_total too.
// Re-preparing a name replaces its statement.
func (s *Server) Prepare(name, sql string) error {
	if s.closed.Load() {
		return fmt.Errorf("server: %w", verr.ErrClosed)
	}
	if name == "" {
		return fmt.Errorf("server: empty statement name")
	}
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return err
	}
	// A text already cached keeps its template and the plans made of it.
	ck := s.cacheKey(normalize(sql))
	if _, ok := s.plans.get(ck); !ok {
		s.plans.put(ck, sel)
	}
	s.mu.Lock()
	s.prepared[name] = sql
	s.mu.Unlock()
	return nil
}

// Execute resolves the named prepared statement's text through the plan
// cache (Resolve) and runs it with args through the front door. The cached
// template and its plans are never written to — an execution binds a copy
// of what its arguments fill in — so any number of executions (with
// different arguments) can run concurrently.
func (s *Server) Execute(ctx context.Context, name string, args ...any) (*sqlexec.Result, error) {
	s.mu.Lock()
	sql, ok := s.prepared[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: no prepared statement %q", name)
	}
	return s.serve(ctx, sql, args)
}

// Query is a client's statement as the Server resolved it (Resolve), for a
// Frontend to run.
type Query struct {
	// Stmt is SQL parsed. A SELECT found in the plan cache is its
	// template, Template.Sel, with its placeholders unbound (Bound binds
	// them to Args).
	Stmt sqlparse.Statement
	SQL  string
	Args []any
	// Template is the SELECT's plan-cache entry, nil for anything else (and
	// for a template run without arguments, which fails to plan).
	Template *Template
	// Plan is how the statement's plan was had (PlanGeneric, PlanCustom,
	// PlanRebuilt), set by whoever runs it, "" when none was: the
	// per-statement statistics count it and the server.exec span carries
	// it.
	Plan string

	fingerprint string
}

// Bound returns Stmt with its placeholders bound to Args: a copy of the
// paths down to them, sharing the rest with the template.
func (q *Query) Bound() (sqlparse.Statement, error) {
	if q.Template == nil {
		return q.Stmt, nil
	}
	return sqlparse.BindSelect(q.Template.Sel, q.Args)
}

// Resolve resolves sql through the LRU plan cache. A SELECT, placeholders
// and all, is parsed and validated once per catalog epoch and text, and
// comes back as its cache entry (Query.Template), args checked against it
// as binding would. Anything else, or a template given no arguments (which
// then fails to plan), is parsed afresh and takes no arguments. The
// fingerprint is the normalized text, the key the statement's executions
// are recorded under. Query and Execute resolve every client statement
// here, and a cluster peer every shard statement.
func (s *Server) Resolve(ctx context.Context, sql string, args []any) (*Query, error) {
	q := &Query{SQL: sql, Args: args, fingerprint: normalize(sql)}
	ck := s.cacheKey(q.fingerprint)
	t, ok := s.plans.lookup(ck)
	unbound := func(sel *sqlparse.Select) bool { return len(args) == 0 && sel.NumParams > 0 }
	if ok && !unbound(t.Sel) {
		mPlanHits.Inc()
		telemetry.SpanFromContext(ctx).SetAttr("plan_cache", "hit")
	} else {
		mPlanMisses.Inc()
		telemetry.SpanFromContext(ctx).SetAttr("plan_cache", "miss")
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		sel, ok := stmt.(*sqlparse.Select)
		if !ok || unbound(sel) {
			if len(args) > 0 {
				return nil, fmt.Errorf("server: a %T takes no arguments", stmt)
			}
			q.Stmt = stmt
			return q, nil
		}
		t = s.plans.put(ck, sel)
	}
	if err := sqlparse.CheckArgs(t.Sel.NumParams, args); err != nil {
		return nil, err
	}
	q.Stmt, q.Template = t.Sel, t
	return q, nil
}

// Query runs one-shot SQL through the front door, resolved through the plan
// cache (Resolve), so a repeated query skips parsing, validation and
// planning; statements with placeholders must go through Prepare/Execute.
func (s *Server) Query(ctx context.Context, sql string) (*sqlexec.Result, error) {
	return s.serve(ctx, sql, nil)
}

// serve is the front door: sql, resolved (Resolve), runs with args under
// the front-door gate and is recorded under its fingerprint. The frontend
// WithFrontend bound executes it, or else the session: a cached SELECT
// through its template's plan over one snapshot of the whole database.
func (s *Server) serve(ctx context.Context, sql string, args []any) (*sqlexec.Result, error) {
	q, err := s.Resolve(ctx, sql, args)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, &s.gate, q, func(ctx context.Context) (*sqlexec.Result, error) {
		if f := s.routing.Load(); f != nil {
			return (*f).Run(ctx, q)
		}
		if q.Template == nil {
			return s.sess.RunStatementContext(ctx, q.Stmt, sql)
		}
		return s.sess.ViewContext(ctx, func(ctx context.Context, db sqlexec.Database) (*sqlexec.Result, error) {
			p, path, err := q.Template.Plan(db, "", args)
			if err != nil {
				return nil, err
			}
			q.Plan = path
			res, err := sqlexec.RunPlanCtx(ctx, db, p)
			if err == nil && res.Profile != nil {
				res.Profile.Query = strings.TrimRight(strings.TrimSpace(sql), ";")
			}
			return res, err
		})
	})
}

// Exec runs one-shot SQL, discarding rows.
func (s *Server) Exec(ctx context.Context, sql string) error {
	_, err := s.Query(ctx, sql)
	return err
}
