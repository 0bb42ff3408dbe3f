package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlexec"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
)

// The wire protocol: one request frame, one response frame, repeated until
// the client hangs up. Both are serving frames (frame.go): a small JSON
// header, then the batches as raw vft chunks. A connection processes its
// requests sequentially — concurrency comes from connections, exactly like a
// database session — while admission control in the Server bounds how many
// of them execute at once.
//
// Errors cross the wire as (code, message) pairs from the verr vocabulary,
// so a client-side errors.Is(err, verr.ErrOverloaded) works end to end.

var (
	gConns     = telemetry.Default().Gauge("server_conns")
	mRequests  = telemetry.Default().Counter("server_proto_requests_total")
	mWireBytes = func(dir string) *telemetry.Counter {
		return telemetry.Default().Counter("server_wire_bytes_total", telemetry.L("dir", dir))
	}
	mWireIn, mWireOut = mWireBytes("in"), mWireBytes("out")
)

type protoRequest struct {
	Op        string            `json:"op"` // "query" | "prepare" | "execute" | "ping"
	SQL       string            `json:"sql,omitempty"`
	Name      string            `json:"name,omitempty"`
	Args      []json.RawMessage `json:"args,omitempty"`
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
	// Trace/Span carry the client's trace context (hex span IDs). When set,
	// the server continues the trace: its admission, execution and operator
	// spans attach under the client's request span, so one query yields one
	// trace across both processes.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// Ext carries the small op-specific payload of a protocol-extension
	// request (ops outside the built-in set, dispatched to the listener's
	// Extension); the batches it speaks of ride behind the header as bodies.
	Ext    json.RawMessage `json:"ext,omitempty"`
	Bodies []int           `json:"bodies,omitempty"`
}

// protoResponse heads every response. A query or execute that produced a
// result with columns names them in Schema and ships the rows as the one
// body, a vft chunk under that schema.
type protoResponse struct {
	Code    string                 `json:"code"`
	Msg     string                 `json:"msg,omitempty"`
	Schema  colstore.Schema        `json:"schema,omitempty"`
	Profile *sqlexec.ProfileExport `json:"profile,omitempty"`
	// Ext is the extension op's reply payload.
	Ext    json.RawMessage `json:"ext,omitempty"`
	Bodies []int           `json:"bodies,omitempty"`
}

// Frontend serves the protocol's SQL ops. A plain server fronts its own
// Server; a cluster peer fronts the router instead, so any node answers any
// query with cluster-wide results (the MPP "every node is an initiator"
// shape).
type Frontend interface {
	Query(ctx context.Context, sql string) (*sqlexec.Result, error)
	Prepare(name, sql string) error
	Execute(ctx context.Context, name string, args ...any) (*sqlexec.Result, error)
}

// Extension handles protocol ops outside the built-in set ("query",
// "prepare", "execute", "ping"). It gets the request's small JSON payload and
// the bodies behind it, and returns the op's reply payload — marshaled into
// the response's Ext field — with the bodies to ship behind that; errors map
// to wire codes like any other op. The request bodies alias the connection's
// read buffer: they are valid until ServeExt returns. The cluster peer
// protocol is an Extension.
type Extension interface {
	ServeExt(ctx context.Context, op string, payload json.RawMessage, bodies [][]byte) (reply any, out [][]byte, err error)
}

// TCPServer exposes a Server over a TCP listener.
type TCPServer struct {
	srv   *Server
	front Frontend
	ext   Extension
	lis   net.Listener
	// maxFrame is vft.MaxFrameBytes (a field so tests can lower it).
	maxFrame int

	mu       sync.Mutex
	conns    map[net.Conn]bool // conn -> currently serving a request
	closed   bool
	draining bool
	wg       sync.WaitGroup
}

// ListenOption customizes a TCPServer before it starts accepting.
type ListenOption func(*TCPServer)

// WithFrontend routes the SQL ops through f instead of the Server itself.
func WithFrontend(f Frontend) ListenOption { return func(t *TCPServer) { t.front = f } }

// WithExtension registers a handler for protocol-extension ops.
func WithExtension(e Extension) ListenOption { return func(t *TCPServer) { t.ext = e } }

// Listen starts serving srv on addr (host:port; port 0 picks a free port).
func Listen(srv *Server, addr string, opts ...ListenOption) (*TCPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPServer{srv: srv, front: srv, lis: lis, maxFrame: vft.MaxFrameBytes, conns: map[net.Conn]bool{}}
	for _, o := range opts {
		o(t)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr reports the bound listen address.
func (t *TCPServer) Addr() string { return t.lis.Addr().String() }

// Close stops accepting, closes every live connection and waits for their
// handlers to exit. In-flight requests are abandoned mid-write; use Shutdown
// for a graceful drain. Idempotent.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	err := t.lis.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting, closes idle
// connections immediately, and lets connections with a request in flight
// finish and write their response before closing. Connections still busy
// when the deadline passes are force-closed (deadline <= 0 waits forever).
// Idempotent with Close; returns once every handler has exited.
func (t *TCPServer) Shutdown(deadline time.Duration) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.draining = true
	idle := make([]net.Conn, 0, len(t.conns))
	for c, busy := range t.conns {
		if !busy {
			idle = append(idle, c)
		}
	}
	t.mu.Unlock()
	err := t.lis.Close()
	for _, c := range idle {
		_ = c.Close()
	}
	done := make(chan struct{})
	go func() { t.wg.Wait(); close(done) }()
	var expired <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-done:
	case <-expired:
		t.mu.Lock()
		for c := range t.conns {
			_ = c.Close()
		}
		t.mu.Unlock()
		<-done
	}
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return err
}

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.lis.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed || t.draining {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.conns[conn] = false
		t.mu.Unlock()
		t.wg.Add(1)
		go t.handle(conn)
	}
}

func (t *TCPServer) handle(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		_ = conn.Close()
		gConns.Add(-1)
	}()
	gConns.Add(1)
	var in []byte
	var out response
	for {
		frame, err := vft.ReadFrame(conn, in)
		if err != nil {
			return // EOF (client done) or connection torn down
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		t.conns[conn] = true // busy: a drain lets this request finish
		t.mu.Unlock()
		mRequests.Inc()
		mWireIn.Add(int64(len(frame)))
		t.serve(frame, &out)
		mWireOut.Add(int64(out.size()))
		werr := out.writeTo(conn)
		in, out.chunk = kept(frame), kept(out.chunk)
		t.mu.Lock()
		t.conns[conn] = false
		draining := t.draining
		t.mu.Unlock()
		if werr != nil || draining {
			return
		}
	}
}

// response is one connection's outgoing frame and the buffer for what of a
// result's chunk is not written from the result itself, both reused by the
// connection's next response.
type response struct {
	outFrame
	chunk []byte
}

// respond frames h and bodies as the response — with one, bodies are the
// parts of a single body. What cannot be framed — a reply that does not
// marshal, a frame over the limit — becomes the error frame saying so: the
// connection stays in step, and the client gets a coded error instead of a
// dead socket, which it would answer by re-running the statement on every
// other node.
func (r *response) respond(maxFrame int, h protoResponse, bodies [][]byte, one bool) {
	var err error
	if one {
		err = r.setBody(&h, &h.Bodies, bodies)
	} else {
		err = r.set(&h, &h.Bodies, bodies)
	}
	if size := r.size(); err == nil && size > maxFrame {
		err = fmt.Errorf("server: response of %d bytes exceeds the %d-byte frame limit", size, maxFrame)
	}
	if err != nil {
		h = errResponse(err)
		_ = r.set(&h, &h.Bodies, nil) // a code and a message always marshal
	}
}

func errResponse(err error) protoResponse {
	return protoResponse{Code: verr.Code(err), Msg: err.Error()}
}

// serve dispatches one request frame and frames its response into out.
func (t *TCPServer) serve(frame []byte, out *response) {
	var req protoRequest
	bodies, err := decodeFrame(frame, &req, &req.Bodies)
	if err != nil {
		out.respond(t.maxFrame, errResponse(fmt.Errorf("bad request: %v", err)), nil, false)
		return
	}
	ctx := context.Background()
	var span *telemetry.Span
	if trace := telemetry.ParseID(req.Trace); trace != 0 {
		// Continue the client's trace: the server-side span adopts the
		// request span as its (remote) parent.
		span = telemetry.Default().Spans().StartSpanRemote(
			"server."+req.Op, trace, telemetry.ParseID(req.Span))
		defer span.End()
		ctx = telemetry.ContextWithSpan(ctx, span)
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, reply, bodies, err := t.dispatch(ctx, &req, bodies)

	enc := span.StartChild("wire.encode")
	resp := protoResponse{Code: verr.CodeOK}
	if err == nil && reply != nil {
		resp.Ext, err = json.Marshal(reply)
	}
	// A result is the one body, written from its own columns where their
	// memory is the chunk's bytes: the frame holds the batch until it is sent.
	one := false
	if err == nil && res != nil && res.Batch != nil && len(res.Batch.Schema) > 0 {
		resp.Schema, resp.Profile = res.Batch.Schema, res.Profile.Export()
		bodies, out.chunk, err = colstore.ChunkParts(out.chunk[:0], res.Batch)
		one = true
		if enc != nil {
			enc.SetAttr("rows", strconv.Itoa(res.Batch.Len()))
		}
	}
	if err != nil {
		resp, bodies, one = errResponse(err), nil, false
	}
	out.respond(t.maxFrame, resp, bodies, one)
	if enc != nil {
		enc.SetAttr("bytes", strconv.Itoa(out.size()))
		enc.End()
	}
}

// dispatch runs one decoded request to what its response carries: the result
// of a SQL op, or an extension op's reply payload and bodies.
func (t *TCPServer) dispatch(ctx context.Context, req *protoRequest, bodies [][]byte) (res *sqlexec.Result, reply any, out [][]byte, err error) {
	switch req.Op {
	case "ping":
	case "prepare":
		err = t.front.Prepare(req.Name, req.SQL)
	case "execute":
		var args []any
		if args, err = decodeArgs(req.Args); err == nil {
			res, err = t.front.Execute(ctx, req.Name, args...)
		}
	case "query":
		res, err = t.front.Query(ctx, req.SQL)
	default:
		if t.ext == nil {
			return nil, nil, nil, fmt.Errorf("unknown op %q", req.Op)
		}
		reply, out, err = t.ext.ServeExt(ctx, req.Op, req.Ext, bodies)
	}
	return res, reply, out, err
}

// decodeArgs converts JSON argument values into the Go types BindSelect
// accepts: integral numbers become int64, other numbers float64, plus
// string and bool.
func decodeArgs(raw []json.RawMessage) ([]any, error) {
	args := make([]any, len(raw))
	for i, r := range raw {
		var s string
		if err := json.Unmarshal(r, &s); err == nil {
			args[i] = s
			continue
		}
		var b bool
		if err := json.Unmarshal(r, &b); err == nil {
			args[i] = b
			continue
		}
		var n json.Number
		if err := json.Unmarshal(r, &n); err == nil {
			if iv, err := n.Int64(); err == nil {
				args[i] = iv
				continue
			}
			if fv, err := n.Float64(); err == nil {
				args[i] = fv
				continue
			}
		}
		return nil, fmt.Errorf("server: argument %d: unsupported JSON value %s", i, r)
	}
	return args, nil
}

// Client is the line-protocol client. A Client owns one connection and is
// safe for sequential use; open one Client per concurrent request stream
// (the load generator does exactly that).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	in   []byte // the last response frame: reply bodies alias it
	out  outFrame
}

// DialTimeout connects to a TCPServer with a dial deadline (none when d is
// zero). Failures wrap verr.ErrNodeDown so routing layers can classify them.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("server: %w: dial %s: %v", verr.ErrNodeDown, addr, err)
	}
	return &Client{conn: conn}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// errNotSent marks a transport failure that happened before the request
// frame reached the connection (or left it truncated, which the server
// discards unread). Either way the peer never processed the request.
var errNotSent = errors.New("request not sent")

// RequestNotSent reports whether err is a transport failure that provably
// occurred before the peer could process the request, so retrying it —
// even a non-idempotent write — cannot double-apply. Failures after the
// frame was sent (recv errors, EOF) do NOT qualify: the peer may have
// executed the request and lost only the reply.
func RequestNotSent(err error) bool { return errors.Is(err, errNotSent) }

// roundTrip sends one request with its bodies and decodes one response,
// mapping protocol error codes back to the verr vocabulary. recv, when not
// nil, takes what the response carries: the bodies it is handed alias the
// connection's read buffer and are valid until the next call on c.
func (c *Client) roundTrip(ctx context.Context, req protoRequest, bodies [][]byte, recv func(resp *protoResponse, bodies [][]byte, span *telemetry.Span) error) error {
	if err := verr.Canceled(ctx.Err()); err != nil {
		return err
	}
	// A traced context gets a client-side request span whose IDs ride the
	// wire, letting the server attach its spans to the same trace.
	span := telemetry.SpanFromContext(ctx).StartChild("client." + req.Op)
	defer span.End()
	if span != nil {
		req.Trace = telemetry.FormatID(span.TraceID())
		req.Span = telemetry.FormatID(span.ID())
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMS = ms
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	enc := span.StartChild("wire.encode")
	err := c.out.set(&req, &req.Bodies, bodies)
	if enc != nil {
		enc.SetAttr("bytes", strconv.Itoa(c.out.size()))
		enc.End()
	}
	if err != nil {
		return err
	}
	// Transport failures — the peer is unreachable or tore the connection
	// down mid-exchange — wrap verr.ErrNodeDown: the remote never produced
	// a (coded) reply, which is exactly the condition a cluster router
	// retries on a replica.
	if err := c.out.writeTo(c.conn); err != nil {
		return fmt.Errorf("server: %w: %w: %v", verr.ErrNodeDown, errNotSent, err)
	}
	frame, err := vft.ReadFrame(c.conn, c.in)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("server: connection closed: %w", verr.ErrClosed)
		}
		return fmt.Errorf("server: %w: recv: %v", verr.ErrNodeDown, err)
	}
	c.in = kept(frame)
	dec := span.StartChild("wire.decode")
	defer dec.End()
	if dec != nil {
		dec.SetAttr("bytes", strconv.Itoa(len(frame)))
	}
	var resp protoResponse
	if bodies, err = decodeFrame(frame, &resp, &resp.Bodies); err != nil {
		return fmt.Errorf("server: bad response: %w", err)
	}
	if resp.Code != verr.CodeOK {
		return verr.FromCode(resp.Code, resp.Msg)
	}
	if recv == nil {
		return nil
	}
	return recv(&resp, bodies, dec)
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
func (c *Client) result(ctx context.Context, req protoRequest) (*Rows, error) {
	rows := &Rows{}
	err := c.roundTrip(ctx, req, nil, func(resp *protoResponse, bodies [][]byte, span *telemetry.Span) error {
		b, err := resp.batch(bodies)
		if err != nil {
			return fmt.Errorf("server: bad response: %w", err)
		}
		rows.Profile = resp.Profile
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

// batch decodes the result a response carries: the one body, a chunk under
// the header's schema — or nil when the statement had no result (DDL, INSERT):
// no schema, no body.
func (resp *protoResponse) batch(bodies [][]byte) (*colstore.Batch, error) {
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
	return c.result(ctx, protoRequest{Op: "query", SQL: sql})
}

// Prepare registers a named prepared statement on the server.
func (c *Client) Prepare(ctx context.Context, name, sql string) error {
	return c.roundTrip(ctx, protoRequest{Op: "prepare", Name: name, SQL: sql}, nil, nil)
}

// Execute binds args to a previously prepared statement and runs it.
func (c *Client) Execute(ctx context.Context, name string, args ...any) (*Rows, error) {
	raw := make([]json.RawMessage, len(args))
	for i, a := range args {
		b, err := json.Marshal(a)
		if err != nil {
			return nil, fmt.Errorf("server: argument %d: %w", i, err)
		}
		raw[i] = b
	}
	return c.result(ctx, protoRequest{Op: "execute", Name: name, Args: raw})
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	return c.roundTrip(ctx, protoRequest{Op: "ping"}, nil, nil)
}

// Call round-trips a protocol-extension op: payload marshals into the
// request's Ext field and bodies ride behind it, the server's Extension
// handles them, the reply's Ext unmarshals into reply (skipped when reply is
// nil) and the reply's bodies are returned — aliasing the connection's read
// buffer: decode them before the next call on c. Errors carry verr identity
// like every other op.
func (c *Client) Call(ctx context.Context, op string, payload any, bodies [][]byte, reply any) (out [][]byte, err error) {
	req := protoRequest{Op: op}
	if payload != nil {
		if req.Ext, err = json.Marshal(payload); err != nil {
			return nil, fmt.Errorf("server: %s payload: %w", op, err)
		}
	}
	err = c.roundTrip(ctx, req, bodies, func(resp *protoResponse, bodies [][]byte, _ *telemetry.Span) error {
		out = bodies
		if reply == nil {
			return nil
		}
		if len(resp.Ext) == 0 {
			return fmt.Errorf("server: %s: empty extension reply", op)
		}
		return json.Unmarshal(resp.Ext, reply)
	})
	return out, err
}
