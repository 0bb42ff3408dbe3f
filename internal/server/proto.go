package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"verticadr/internal/sqlexec"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
)

// The wire protocol: one request frame, one response frame, repeated until
// the client hangs up. Frames are the same u32-length-prefixed layout the
// transfer data plane uses (vft.WriteFrame/ReadFrame); payloads are JSON. A
// connection processes its requests sequentially — concurrency comes from
// connections, exactly like a database session — while admission control in
// the Server bounds how many of them execute at once.
//
// Errors cross the wire as (code, message) pairs from the verr vocabulary,
// so a client-side errors.Is(err, verr.ErrOverloaded) works end to end.

var (
	gConns    = telemetry.Default().Gauge("server_conns")
	mRequests = telemetry.Default().Counter("server_proto_requests_total")
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
	// Ext carries the op-specific payload of a protocol-extension request
	// (ops outside the built-in set, dispatched to the listener's
	// Extension). Binary batch data rides inside as base64 []byte fields,
	// so float bits survive the JSON envelope untouched.
	Ext json.RawMessage `json:"ext,omitempty"`
}

type protoResponse struct {
	Code    string                 `json:"code"`
	Msg     string                 `json:"msg,omitempty"`
	Cols    []string               `json:"cols,omitempty"`
	Rows    [][]any                `json:"rows,omitempty"`
	Profile *sqlexec.ProfileExport `json:"profile,omitempty"`
	// Ext is the extension op's reply payload.
	Ext json.RawMessage `json:"ext,omitempty"`
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
// "prepare", "execute", "ping"). It returns the op's reply payload, which
// is marshaled into the response's Ext field; errors map to wire codes like
// any other op. The cluster peer protocol is an Extension.
type Extension interface {
	ServeExt(ctx context.Context, op string, payload json.RawMessage) (any, error)
}

// TCPServer exposes a Server over a TCP listener.
type TCPServer struct {
	srv   *Server
	front Frontend
	ext   Extension
	lis   net.Listener

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
	t := &TCPServer{srv: srv, front: srv, lis: lis, conns: map[net.Conn]bool{}}
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
	var buf []byte
	for {
		frame, err := vft.ReadFrame(conn, buf)
		if err != nil {
			return // EOF (client done) or connection torn down
		}
		buf = frame
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		t.conns[conn] = true // busy: a drain lets this request finish
		t.mu.Unlock()
		mRequests.Inc()
		resp := t.serve(frame)
		payload, err := json.Marshal(resp)
		if err != nil {
			payload, _ = json.Marshal(protoResponse{Code: verr.CodeInternal, Msg: err.Error()})
		}
		werr := vft.WriteFrame(conn, payload)
		t.mu.Lock()
		t.conns[conn] = false
		draining := t.draining
		t.mu.Unlock()
		if werr != nil || draining {
			return
		}
	}
}

// serve dispatches one request frame and builds its response.
func (t *TCPServer) serve(frame []byte) protoResponse {
	var req protoRequest
	if err := json.Unmarshal(frame, &req); err != nil {
		return protoResponse{Code: verr.CodeInternal, Msg: fmt.Sprintf("bad request: %v", err)}
	}
	ctx := context.Background()
	if trace := telemetry.ParseID(req.Trace); trace != 0 {
		// Continue the client's trace: the server-side span adopts the
		// request span as its (remote) parent.
		span := telemetry.Default().Spans().StartSpanRemote(
			"server."+req.Op, trace, telemetry.ParseID(req.Span))
		defer span.End()
		ctx = telemetry.ContextWithSpan(ctx, span)
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	switch req.Op {
	case "ping":
		return protoResponse{Code: verr.CodeOK}
	case "prepare":
		if err := t.front.Prepare(req.Name, req.SQL); err != nil {
			return errResponse(err)
		}
		return protoResponse{Code: verr.CodeOK}
	case "execute":
		args, err := decodeArgs(req.Args)
		if err != nil {
			return protoResponse{Code: verr.CodeInternal, Msg: err.Error()}
		}
		res, err := t.front.Execute(ctx, req.Name, args...)
		if err != nil {
			return errResponse(err)
		}
		return okResponse(res)
	case "query":
		res, err := t.front.Query(ctx, req.SQL)
		if err != nil {
			return errResponse(err)
		}
		return okResponse(res)
	default:
		if t.ext != nil {
			reply, err := t.ext.ServeExt(ctx, req.Op, req.Ext)
			if err != nil {
				return errResponse(err)
			}
			raw, err := json.Marshal(reply)
			if err != nil {
				return protoResponse{Code: verr.CodeInternal, Msg: err.Error()}
			}
			return protoResponse{Code: verr.CodeOK, Ext: raw}
		}
		return protoResponse{Code: verr.CodeInternal, Msg: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func errResponse(err error) protoResponse {
	return protoResponse{Code: verr.Code(err), Msg: err.Error()}
}

func okResponse(res *sqlexec.Result) protoResponse {
	out := protoResponse{Code: verr.CodeOK}
	if res == nil || res.Batch == nil {
		return out
	}
	for _, c := range res.Schema() {
		out.Cols = append(out.Cols, c.Name)
	}
	out.Rows = res.Rows()
	out.Profile = res.Profile.Export()
	return out
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
	buf  []byte
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

// roundTrip sends one request and decodes one response, mapping protocol
// error codes back to the verr vocabulary.
func (c *Client) roundTrip(ctx context.Context, req protoRequest) (*protoResponse, error) {
	if err := verr.Canceled(ctx.Err()); err != nil {
		return nil, err
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
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Transport failures — the peer is unreachable or tore the connection
	// down mid-exchange — wrap verr.ErrNodeDown: the remote never produced
	// a (coded) reply, which is exactly the condition a cluster router
	// retries on a replica.
	if err := vft.WriteFrame(c.conn, payload); err != nil {
		return nil, fmt.Errorf("server: %w: %w: %v", verr.ErrNodeDown, errNotSent, err)
	}
	frame, err := vft.ReadFrame(c.conn, c.buf)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("server: connection closed: %w", verr.ErrClosed)
		}
		return nil, fmt.Errorf("server: %w: recv: %v", verr.ErrNodeDown, err)
	}
	c.buf = frame
	var resp protoResponse
	if err := json.Unmarshal(frame, &resp); err != nil {
		return nil, fmt.Errorf("server: bad response: %w", err)
	}
	if resp.Code != verr.CodeOK {
		return nil, verr.FromCode(resp.Code, resp.Msg)
	}
	return &resp, nil
}

// Rows is a protocol-level result set. Profile is non-nil for PROFILE
// statements: the server ships its per-operator measurements back with the
// rows.
type Rows struct {
	Cols    []string
	Rows    [][]any
	Profile *sqlexec.ProfileExport
}

// Query runs one-shot SQL on the server. A ctx deadline is forwarded so the
// server's engine observes it at block boundaries.
func (c *Client) Query(ctx context.Context, sql string) (*Rows, error) {
	resp, err := c.roundTrip(ctx, protoRequest{Op: "query", SQL: sql})
	if err != nil {
		return nil, err
	}
	return &Rows{Cols: resp.Cols, Rows: resp.Rows, Profile: resp.Profile}, nil
}

// Prepare registers a named prepared statement on the server.
func (c *Client) Prepare(ctx context.Context, name, sql string) error {
	_, err := c.roundTrip(ctx, protoRequest{Op: "prepare", Name: name, SQL: sql})
	return err
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
	resp, err := c.roundTrip(ctx, protoRequest{Op: "execute", Name: name, Args: raw})
	if err != nil {
		return nil, err
	}
	return &Rows{Cols: resp.Cols, Rows: resp.Rows, Profile: resp.Profile}, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, protoRequest{Op: "ping"})
	return err
}

// Call round-trips a protocol-extension op: payload marshals into the
// request's Ext field, the server's Extension handles it, and the reply's
// Ext unmarshals into reply (skipped when reply is nil). Errors carry verr
// identity like every other op.
func (c *Client) Call(ctx context.Context, op string, payload, reply any) error {
	var raw json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("server: %s payload: %w", op, err)
		}
		raw = b
	}
	resp, err := c.roundTrip(ctx, protoRequest{Op: op, Ext: raw})
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	if len(resp.Ext) == 0 {
		return fmt.Errorf("server: %s: empty extension reply", op)
	}
	return json.Unmarshal(resp.Ext, reply)
}
