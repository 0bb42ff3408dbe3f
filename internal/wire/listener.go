package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// meters are the series a listener counts into — its open connections, the
// requests it served and the frame bytes each way — named after what it
// serves, so the serving protocol and the DR worker endpoints read apart.
type meters struct {
	conns             *telemetry.Gauge
	requests, in, out *telemetry.Counter
}

func newMeters(series string) meters {
	reg := telemetry.Default()
	return meters{
		conns:    reg.Gauge(series + "_conns"),
		requests: reg.Counter(series + "_proto_requests_total"),
		in:       reg.Counter(series+"_wire_bytes_total", telemetry.L("dir", "in")),
		out:      reg.Counter(series+"_wire_bytes_total", telemetry.L("dir", "out")),
	}
}

// Handler answers one request: req is its header and bodies the bodies
// behind it, both valid until the handler returns. A handler either frames
// its answer with out.Respond and returns nil, returns nil without one — the
// answer is a bare ok — or returns an error, which goes back coded. ctx
// carries the client's trace and deadline.
type Handler func(ctx context.Context, req *Request, bodies [][]byte, out *Reply) error

// Reply is one connection's response frame and the scratch a handler builds
// it from, all reused by the connection's next request.
type Reply struct {
	req      Request
	resp     Response
	chunk    []byte // the part of a result's chunk not written from the result
	frame    frame
	answered bool
	took     time.Duration
}

// Respond frames h and bodies as the response. What cannot be framed — a
// header that does not marshal, a frame over limit — becomes the error frame
// saying so: the connection stays in step, and the client gets a coded error
// instead of a dead socket, which it would answer by re-running the
// statement on every other node.
func (r *Reply) Respond(limit int, h Response, bodies [][]byte) { r.respond(limit, h, bodies, false) }

// RespondBatch frames h with b as its one body, a chunk written from b's own
// columns where their memory is the chunk's bytes (colstore.ChunkParts): b
// must not change until the frame is sent.
func (r *Reply) RespondBatch(limit int, h Response, b *colstore.Batch) {
	parts, chunk, err := colstore.ChunkParts(r.chunk[:0], b)
	r.chunk = chunk
	if err != nil {
		r.respond(limit, errResponse(err), nil, false)
		return
	}
	r.respond(limit, h, parts, true)
}

func (r *Reply) respond(limit int, h Response, bodies [][]byte, one bool) {
	r.answered = true
	lens := r.resp.Bodies[:0]
	r.resp, r.resp.Bodies = h, lens
	err := r.frame.set(&r.resp, &r.resp.Bodies, bodies, one)
	if size := r.frame.size(); err == nil && size > limit {
		err = fmt.Errorf("wire: response of %d bytes exceeds the %d-byte frame limit", size, limit)
	}
	if err != nil {
		r.resp, r.resp.Bodies = errResponse(err), lens
		_ = r.frame.set(&r.resp, &r.resp.Bodies, nil, false) // a code and a message always marshal
	}
}

// Size is the response frame's payload length.
func (r *Reply) Size() int { return r.frame.size() }

// ReadTime is how long the request's payload took to come off the socket.
func (r *Reply) ReadTime() time.Duration { return r.took }

// Listener serves a Handler on a TCP address. A connection's requests are
// answered in order — concurrency comes from connections, like database
// sessions — and errors cross as verr (code, message) pairs, so a client's
// errors.Is(err, verr.ErrOverloaded) works end to end.
type Listener struct {
	lis    net.Listener
	handle Handler
	m      meters

	mu      sync.Mutex
	conns   map[net.Conn]bool // conn -> currently serving a request
	closing bool
	wg      sync.WaitGroup
}

// Listen starts serving h on addr (host:port; port 0 picks a free port),
// counting into the series named series_conns,
// series_proto_requests_total and series_wire_bytes_total{dir}.
func Listen(addr, series string, h Handler) (*Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{lis: lis, handle: h, m: newMeters(series), conns: map[net.Conn]bool{}}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr reports the bound listen address.
func (l *Listener) Addr() string { return l.lis.Addr().String() }

// Close stops accepting, closes every live connection and waits for their
// handlers to exit. In-flight requests are abandoned mid-write; use Shutdown
// for a graceful drain. Idempotent.
func (l *Listener) Close() error { return l.stop(-1) }

// Shutdown drains the listener gracefully: it stops accepting, closes idle
// connections immediately, and lets connections with a request in flight
// finish and write their response before closing. Connections still busy
// when the deadline passes are force-closed (deadline <= 0 waits forever).
// Idempotent with Close; returns once every handler has exited.
func (l *Listener) Shutdown(deadline time.Duration) error { return l.stop(max(deadline, 0)) }

// stop closes the listener, then every idle connection — every connection
// when deadline < 0 — and waits for the handlers, closing what is still busy
// once a positive deadline passes.
func (l *Listener) stop(deadline time.Duration) error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		return nil
	}
	l.closing = true
	var now []net.Conn
	for c, busy := range l.conns {
		if !busy || deadline < 0 {
			now = append(now, c)
		}
	}
	l.mu.Unlock()
	err := l.lis.Close()
	for _, c := range now {
		_ = c.Close()
	}
	done := make(chan struct{})
	go func() { l.wg.Wait(); close(done) }()
	var expired <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-done:
	case <-expired:
		l.mu.Lock()
		for c := range l.conns {
			_ = c.Close()
		}
		l.mu.Unlock()
		<-done
	}
	return err
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.lis.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closing {
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		l.conns[conn] = false
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		_ = conn.Close()
		l.m.conns.Add(-1)
	}()
	l.m.conns.Add(1)
	rd := &reader{r: conn}
	defer rd.shed()
	out := &Reply{}
	for {
		frame, err := rd.next()
		if err != nil {
			return // EOF (client done) or connection torn down
		}
		l.mu.Lock()
		l.conns[conn] = true // busy: a drain lets this request finish
		l.mu.Unlock()
		l.m.requests.Inc()
		l.m.in.Add(int64(len(frame)))
		out.took = rd.took
		l.serve(frame, out)
		l.m.out.Add(int64(out.Size()))
		werr := out.frame.writeTo(conn)
		rd.shed() // a large request's buffer does not idle with the connection
		if cap(out.chunk) > keepBufBytes {
			out.chunk = nil
		}
		l.mu.Lock()
		l.conns[conn] = false
		closing := l.closing
		l.mu.Unlock()
		if werr != nil || closing {
			return
		}
	}
}

// serve decodes one request frame and frames its response into out.
func (l *Listener) serve(frame []byte, out *Reply) {
	out.answered = false
	req := &out.req
	*req = Request{Ext: req.Ext[:0], Bodies: req.Bodies[:0]}
	bodies, err := DecodeFrame(frame, req, &req.Bodies)
	if err != nil {
		out.Respond(MaxFrameBytes, errResponse(fmt.Errorf("bad request: %v", err)), nil)
		return
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
	if err := l.handle(ctx, req, bodies, out); err != nil {
		out.Respond(MaxFrameBytes, errResponse(err), nil)
	} else if !out.answered {
		out.Respond(MaxFrameBytes, Response{Code: verr.CodeOK}, nil)
	}
}
