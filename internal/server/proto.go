package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlexec"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
	"verticadr/internal/wire"
)

// The serving protocol's SQL ops on both ends of the one transport
// (internal/wire): the listener's handler, and the Client's query, prepare
// and execute. The handler hands every SQL op to its Server, whose
// admission control bounds how many run at once.

// Frontend executes a statement the Server resolved and admitted in place of
// the Server's own session: q carries the statement, its text and the
// arguments a prepared statement's execution brought (none for a one-shot
// statement), and a SELECT's plan-cache entry. A clustered node's router is
// one, so any node answers any statement with cluster-wide results (the MPP
// "every node is an initiator" shape).
type Frontend interface {
	Run(ctx context.Context, q *Query) (*sqlexec.Result, error)
}

// Extension handles protocol ops outside the built-in set ("query",
// "prepare", "execute", "ping"). It gets the request's header — the op, its
// small binary payload in Ext, and the SQL and Args of an op that carries a
// statement — and the bodies behind it, and returns the op's reply; errors
// map to wire codes like any other op. The header's byte fields and the
// bodies alias the connection's read buffer: they are valid until ServeExt
// returns. The cluster peer protocol is an Extension.
type Extension interface {
	ServeExt(ctx context.Context, req *wire.Request, bodies [][]byte) (ExtReply, error)
}

// ExtReply is an extension op's answer: Ext is the response's Ext field,
// the op's encoded reply payload, Bodies ride behind it, and Schema, when the
// one body is a batch's chunk, is the schema to decode it under — in the
// header's Schema field, where a query result's schema goes.
type ExtReply struct {
	Ext    []byte
	Schema colstore.Schema
	Bodies [][]byte
}

// TCPServer exposes a Server on a wire.Listener (Addr, Close and Shutdown
// are the listener's).
type TCPServer struct {
	*wire.Listener
	srv *Server
	ext Extension
	// maxFrame is wire.MaxFrameBytes (a field so tests can lower it).
	maxFrame int
}

// ListenOption customizes a TCPServer before it starts accepting.
type ListenOption func(*TCPServer)

// WithFrontend binds f to the listener's Server: from then on every
// statement the Server admits — over any listener or in process — executes
// through f. Binding again replaces f; a statement already running keeps
// the frontend it started with.
func WithFrontend(f Frontend) ListenOption {
	return func(t *TCPServer) { t.srv.routing.Store(&f) }
}

// WithExtension registers a handler for protocol-extension ops.
func WithExtension(e Extension) ListenOption { return func(t *TCPServer) { t.ext = e } }

// Listen starts serving srv on addr (host:port; port 0 picks a free port).
func Listen(srv *Server, addr string, opts ...ListenOption) (*TCPServer, error) {
	t := &TCPServer{srv: srv, maxFrame: wire.MaxFrameBytes}
	for _, o := range opts {
		o(t)
	}
	l, err := wire.Listen(addr, "server", t.serve)
	if err != nil {
		return nil, err
	}
	t.Listener = l
	return t, nil
}

// serve answers one request: the op runs, then its result — the one body —
// or its extension reply is framed into out. An error goes back coded.
func (t *TCPServer) serve(ctx context.Context, req *wire.Request, bodies [][]byte, out *wire.Reply) error {
	res, ext, err := t.dispatch(ctx, req, bodies)
	if err != nil {
		return err
	}
	enc := telemetry.SpanFromContext(ctx).StartChild("wire.encode")
	defer enc.End()
	resp := wire.Response{Code: verr.CodeOK, Schema: ext.Schema, Ext: ext.Ext}
	if res != nil && res.Batch != nil && len(res.Batch.Schema) > 0 {
		resp.Schema = res.Batch.Schema
		if p := res.Profile.Export(); p != nil {
			if resp.Profile, err = json.Marshal(p); err != nil {
				return err
			}
		}
		if enc != nil {
			enc.SetAttr("rows", strconv.Itoa(res.Batch.Len()))
		}
		out.RespondBatch(t.maxFrame, resp, res.Batch)
	} else {
		out.Respond(t.maxFrame, resp, ext.Bodies)
	}
	if enc != nil {
		enc.SetAttr("bytes", strconv.Itoa(out.Size()))
	}
	return nil
}

// dispatch runs one decoded request to what its response carries: the result
// of a SQL op, or an extension op's reply.
func (t *TCPServer) dispatch(ctx context.Context, req *wire.Request, bodies [][]byte) (res *sqlexec.Result, ext ExtReply, err error) {
	switch req.Op {
	case "ping":
	case "prepare":
		err = t.srv.Prepare(req.Name, req.SQL)
	case "execute":
		res, err = t.srv.Execute(ctx, req.Name, req.Args...)
	case "query":
		res, err = t.srv.Query(ctx, req.SQL)
	default:
		if t.ext == nil {
			return nil, ext, fmt.Errorf("unknown op %q", req.Op)
		}
		ext, err = t.ext.ServeExt(ctx, req, bodies)
	}
	return res, ext, err
}

// Client is the serving protocol's client: a wire.Client (Ping, Call,
// Close) with the SQL ops. A Client owns one connection and is safe for
// sequential use; open one Client per concurrent request stream (the load
// generator does exactly that).
type Client struct{ *wire.Client }

// DialTimeout connects to a TCPServer with a dial deadline (none when d is
// zero). Failures wrap verr.ErrNodeDown so routing layers can classify them.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	c, err := wire.Dial(addr, d)
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// Rows is a protocol-level result set. Profile is non-nil for PROFILE
// statements: the server ships its per-operator measurements back with the
// rows.
//
// Values arrive typed by their column: FLOAT as float64, bit-exact (NaN
// payloads, ±Inf and -0.0 included), VARCHAR as string, byte-exact, BOOLEAN
// as bool — and INTEGER as float64 too, exact only to 2^53 (rounded as
// float64(v) rounds): the form clients have always been handed, kept until
// the benchmark's checks stop reading counts as float64. Boxing a value does
// not allocate: a cell points into the column the response decoded into, so
// the rows of one result share a few large allocations, held until the last
// cell is dropped.
type Rows struct {
	Cols    []string
	Rows    [][]any
	Profile *sqlexec.ProfileExport
}

// result runs a request that answers with a result set.
func (c *Client) result(ctx context.Context, req wire.Request) (*Rows, error) {
	rows := &Rows{}
	err := c.RoundTrip(ctx, req, nil, func(resp *wire.Response, bodies [][]byte, span *telemetry.Span) error {
		b, err := resultBatch(resp, bodies)
		if err != nil {
			return fmt.Errorf("server: bad response: %w", err)
		}
		if len(resp.Profile) > 0 {
			rows.Profile = new(sqlexec.ProfileExport)
			if err := json.Unmarshal(resp.Profile, rows.Profile); err != nil {
				return fmt.Errorf("server: bad response profile: %w", err)
			}
		}
		if b != nil {
			rows.Cols, rows.Rows = boxRows(b)
		}
		if span != nil {
			span.SetAttr("rows", strconv.Itoa(len(rows.Rows)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// resultBatch decodes the result a response carries: the one body, a chunk
// under the header's schema — or nil when the statement had no result (DDL,
// INSERT): no schema, no body.
func resultBatch(resp *wire.Response, bodies [][]byte) (*colstore.Batch, error) {
	if len(resp.Schema) == 0 && len(bodies) == 0 {
		return nil, nil
	}
	if len(bodies) != 1 {
		return nil, fmt.Errorf("result of %d columns in %d bodies", len(resp.Schema), len(bodies))
	}
	return vft.DecodeChunk(bodies[0], resp.Schema)
}

// boxRows turns a result batch into boxed rows a column at a time, every row
// a window of one slab, without an allocation per value: FLOAT and VARCHAR
// cells point into b's own columns (colstore.Box; b is the batch the client
// just decoded, never written again), INTEGER cells into one float64
// conversion of their column, and a BOOLEAN boxes without allocating anyway.
func boxRows(b *colstore.Batch) (cols []string, rows [][]any) {
	n, w := b.Len(), len(b.Cols)
	cols = make([]string, w)
	for j := range cols {
		cols[j] = b.Schema[j].Name
	}
	if n == 0 {
		return cols, nil
	}
	slab := make([]any, n*w)
	for j, col := range b.Cols {
		switch col.Type {
		case colstore.TypeInt64:
			fs := make([]float64, n)
			for i, v := range col.Ints {
				fs[i] = float64(v)
			}
			colstore.Box(slab[j:], w, fs)
		case colstore.TypeFloat64:
			colstore.Box(slab[j:], w, col.Floats)
		case colstore.TypeString:
			colstore.Box(slab[j:], w, col.Strs)
		case colstore.TypeBool:
			for i, v := range col.Bools {
				slab[i*w+j] = v
			}
		}
	}
	rows = make([][]any, n)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return cols, rows
}

// Query runs one-shot SQL on the server. A ctx deadline is forwarded so the
// server's engine observes it at block boundaries.
func (c *Client) Query(ctx context.Context, sql string) (*Rows, error) {
	return c.result(ctx, wire.Request{Op: "query", SQL: sql})
}

// Prepare registers a named prepared statement on the server.
func (c *Client) Prepare(ctx context.Context, name, sql string) error {
	return c.RoundTrip(ctx, wire.Request{Op: "prepare", Name: name, SQL: sql}, nil, nil)
}

// Execute binds args to a previously prepared statement and runs it. The
// arguments cross typed in the frame header, exactly as they bind in
// process (wire.Request); one of a type BindSelect does not take — nil
// among them — is refused before anything is sent.
func (c *Client) Execute(ctx context.Context, name string, args ...any) (*Rows, error) {
	return c.result(ctx, wire.Request{Op: "execute", Name: name, Args: args})
}
