package verticadr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"verticadr/internal/catalog"
	"verticadr/internal/cluster"
	"verticadr/internal/colstore"
	"verticadr/internal/server"
	"verticadr/internal/sqlparse"
	"verticadr/internal/verr"
	"verticadr/internal/wire"
)

// ClusterConfig describes the vdr-serve endpoints a Client talks to. One
// address is an ordinary single server; several addresses are the nodes of
// a sharded cluster (every node answers every query with cluster-wide
// results, so the client needs the list only for failover).
type ClusterConfig = cluster.Config

// NodeHealth is one node's state as reported by the cluster health surface.
type NodeHealth = cluster.NodeHealth

// ErrNodeDown: a node (or, for a routed query, every replica of a shard)
// was unreachable. Idempotent reads fail over before this surfaces.
var ErrNodeDown = verr.ErrNodeDown

// ErrJoinTooLarge: a routed join had to broadcast a joined table larger than
// the router's fixed limit (the table is not segmented by hash of its join
// key like the FROM table is). Nothing ran.
var ErrJoinTooLarge = verr.ErrJoinTooLarge

// Client is the unified, topology-aware client for vdr-serve — one or
// many nodes behind the same API. It holds one active connection; when a
// transport failure marks that node unreachable, idempotent calls —
// SELECT/EXPLAIN through Query, Prepare, Execute, Predict, Ping —
// transparently reconnect to the next configured address and re-prepare
// the client's named statements there. Statements with effects (INSERT
// and DDL through Query/Exec, COPY through Load) fail over only when the
// request provably never reached the node; once their outcome is unknown
// the error surfaces instead of silently double-applying rows or
// re-running DDL.
//
// A Client is safe for sequential use; open one Client per concurrent
// request stream, exactly like ServerClient.
type Client struct {
	cfg ClusterConfig

	mu       sync.Mutex
	conn     *server.Client
	at       int               // index into cfg.Addrs of conn's node
	prepared map[string]string // name -> SQL, replayed after failover
	// defs caches the definitions Load builds batches under, per table,
	// with the catalog epoch of the node that read each: a load reply past
	// that epoch drops it. A new connection starts without any.
	defs   map[string]tableDef
	closed bool
}

// tableDef is a cached table definition and the epoch it was read at.
type tableDef struct {
	def   *catalog.TableDef
	epoch uint64
}

// Dial connects to the first reachable configured address.
func Dial(ctx context.Context, cfg ClusterConfig) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("verticadr: ClusterConfig needs at least one address")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	c := &Client{cfg: cfg, prepared: map[string]string{}}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// Close tears down the active connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// connectLocked dials the next reachable address, starting at the current
// cursor, and replays the prepared statements onto the new node.
func (c *Client) connectLocked(ctx context.Context) error {
	if c.closed {
		return fmt.Errorf("verticadr: client closed: %w", verr.ErrClosed)
	}
	var lastErr error
	for i := 0; i < len(c.cfg.Addrs); i++ {
		at := (c.at + i) % len(c.cfg.Addrs)
		conn, err := server.DialTimeout(c.cfg.Addrs[at], c.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if err := conn.Ping(ctx); err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		ok := true
		for name, sql := range c.prepared {
			if err := conn.Prepare(ctx, name, sql); err != nil {
				_ = conn.Close()
				lastErr, ok = err, false
				break
			}
		}
		if !ok {
			continue
		}
		c.conn, c.at, c.defs = conn, at, map[string]tableDef{}
		return nil
	}
	return fmt.Errorf("verticadr: no reachable node: %w: %v", verr.ErrNodeDown, lastErr)
}

// transportFailure reports whether the active node became unusable
// (unreachable or shutting down), as opposed to rejecting the query.
func transportFailure(err error) bool {
	return errors.Is(err, verr.ErrNodeDown) || errors.Is(err, verr.ErrClosed)
}

// do runs fn over the active connection. Idempotent calls retry on the
// next node after a transport failure, up to once per configured address.
// Non-idempotent calls retry only when the failure happened before the
// request reached the node (wire.RequestNotSent) — re-running is then
// provably safe; any later failure leaves the outcome unknown and must
// surface to the caller.
func (c *Client) do(ctx context.Context, idempotent bool, fn func(*server.Client) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < len(c.cfg.Addrs); attempt++ {
		if c.conn == nil {
			if err := c.connectLocked(ctx); err != nil {
				return err
			}
		}
		err := fn(c.conn)
		if err == nil {
			return nil
		}
		if !transportFailure(err) {
			return err
		}
		_ = c.conn.Close()
		c.conn = nil
		c.at = (c.at + 1) % len(c.cfg.Addrs)
		lastErr = err
		if !idempotent && !wire.RequestNotSent(err) {
			return err
		}
	}
	return fmt.Errorf("verticadr: every node failed: %w: %v", verr.ErrNodeDown, lastErr)
}

// idempotentSQL reports whether sql is safe to re-run on another node when
// a transport failure left its first outcome unknown: reads (SELECT,
// EXPLAIN) are; INSERT and DDL are not. Unparseable SQL is classified
// non-idempotent — the server's parse error comes back as a query error,
// not a transport failure, so the conservative default costs nothing.
func idempotentSQL(sql string) bool {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return false
	}
	switch stmt.(type) {
	case *sqlparse.Select, *sqlparse.Explain:
		return true
	}
	return false
}

// Query runs one-shot SQL. Against a cluster the node routes it over the
// shards and merges, so the result is identical from any node. The rows
// cross as a columnar chunk, never as text, so every value arrives with the
// bits and bytes the node computed (see Rows). Only reads
// (SELECT, EXPLAIN) fail over once in flight; an INSERT or DDL statement
// whose outcome is unknown surfaces the transport error instead.
func (c *Client) Query(ctx context.Context, sql string) (*Rows, error) {
	var rows *Rows
	err := c.do(ctx, idempotentSQL(sql), func(conn *server.Client) error {
		r, err := conn.Query(ctx, sql)
		rows = r
		return err
	})
	return rows, err
}

// Prepare registers a named SELECT. The client remembers it and re-prepares
// it automatically when failing over to another node.
func (c *Client) Prepare(ctx context.Context, name, sql string) error {
	err := c.do(ctx, true, func(conn *server.Client) error {
		return conn.Prepare(ctx, name, sql)
	})
	if err == nil {
		// do() holds no lock here; retake it for the map.
		c.mu.Lock()
		c.prepared[name] = sql
		c.mu.Unlock()
	}
	return err
}

// Execute binds args to a prepared statement and runs it.
func (c *Client) Execute(ctx context.Context, name string, args ...any) (*Rows, error) {
	var rows *Rows
	err := c.do(ctx, true, func(conn *server.Client) error {
		r, err := conn.Execute(ctx, name, args...)
		rows = r
		return err
	})
	return rows, err
}

// Predict scores a table with a deployed model: the paper's in-database
// prediction statement, built and routed for the caller.
//
//	client.Predict(ctx, "rModel", "mytable", "a", "b")
//	→ SELECT GlmPredict(a, b USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable
func (c *Client) Predict(ctx context.Context, model, table string, cols ...string) (*Rows, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("verticadr: Predict needs at least one input column")
	}
	sql := fmt.Sprintf("SELECT GlmPredict(%s USING PARAMETERS model='%s') OVER (PARTITION BEST) FROM %s",
		strings.Join(cols, ", "), strings.ReplaceAll(model, "'", "''"), table)
	return c.Query(ctx, sql)
}

// Exec runs a statement for effect (DDL; against a cluster it is broadcast
// to every node). Like any write, it does not fail over once its outcome
// is unknown; re-issuing the statement is the caller's recovery path.
func (c *Client) Exec(ctx context.Context, sql string) error {
	_, err := c.Query(ctx, sql)
	return err
}

// Load COPYs rows into a table through the connected node: the node splits
// them by the table's segmentation — across the cluster's shards and
// replicas when clustered, across local segments otherwise. Row values
// must match the column types (int64, float64, string, bool). Load fails
// over only while the request provably never reached the node; after
// that, an error means the batch's outcome must be checked, not that it
// was retried elsewhere. The table's definition is fetched once per
// connection and kept until a reply shows the node's catalog past it, so a
// Load is one round trip.
func (c *Client) Load(ctx context.Context, table string, rows [][]any) error {
	if len(rows) == 0 {
		return nil
	}
	return c.do(ctx, false, func(conn *server.Client) error {
		// A cached definition the rows do not fit, or one the node refuses
		// the batch under (nothing applied), may predate DDL: once, it is
		// fetched afresh and the batch built and sent again.
		for retried := false; ; retried = true {
			d, cached := c.defs[table]
			if !cached {
				def, epoch, err := cluster.ClientTableDef(ctx, conn, table)
				if err != nil {
					return err
				}
				d = tableDef{def: def, epoch: epoch}
				c.defs[table] = d
			}
			b := colstore.NewBatchCap(d.def.Schema, len(rows))
			var epoch uint64
			err := appendRows(b, rows)
			stale := err != nil && cached
			if err == nil {
				epoch, err = cluster.ClientCopy(ctx, conn, table, b)
				stale = errors.Is(err, cluster.ErrDefinitionChanged)
			}
			if stale || epoch > d.epoch {
				delete(c.defs, table)
			}
			if !stale || retried {
				return err
			}
		}
	})
}

func appendRows(b *colstore.Batch, rows [][]any) error {
	for _, row := range rows {
		if err := b.AppendRow(row...); err != nil {
			return err
		}
	}
	return nil
}

// Ping round-trips to the active node, failing over if it is gone.
func (c *Client) Ping(ctx context.Context) error {
	return c.do(ctx, true, func(conn *server.Client) error { return conn.Ping(ctx) })
}

// Health reports which cluster nodes answer, with the shards each one owns.
// The first reachable peer supplies the full cluster address list, so the
// report covers every node even when the client was dialed with a subset.
func (c *Client) Health(ctx context.Context) []NodeHealth {
	return cluster.DiscoverHealth(ctx, c.cfg.Addrs, c.cfg.DialTimeout)
}
