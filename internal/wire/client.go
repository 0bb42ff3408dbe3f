package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// Client is one connection to a Listener. It is safe for sequential use;
// open one Client per concurrent request stream. A round trip is a Send and
// a Wait, so a caller can write requests on several connections before it
// reads any reply.
type Client struct {
	mu    sync.Mutex
	conn  net.Conn
	abort func() // sets a deadline in the past: ctx's end on the socket
	rd    reader // the last response frame: reply bodies alias it
	out   frame
	req   Request
	resp  Response
	sent  sent // the request in flight between Send and Wait
}

// sent is what Send leaves to its Wait: the request's context, its
// client-side span, and the hook that aborts the socket when ctx ends.
type sent struct {
	ctx  context.Context
	span *telemetry.Span
	stop func() bool
}

// Dial connects to a Listener with a dial deadline (none when d is zero).
// Failures wrap verr.ErrNodeDown so routing layers can classify them.
func Dial(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("wire: %w: dial %s: %v", verr.ErrNodeDown, addr, err)
	}
	abort := func() { _ = conn.SetDeadline(aLongTimeAgo) }
	return &Client{conn: conn, abort: abort, rd: reader{r: conn}}, nil
}

// Close tears down the connection, unblocking a Send or Wait in progress. A
// request sent and not waited for is abandoned: its reply is never read.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.mu.Lock()
	c.finish()
	c.mu.Unlock()
	return err
}

// finish ends the request in flight, if any: its span ends and ctx no
// longer reaches the socket. It reports whether ctx ended while the request
// was in flight, in which case the socket's deadline is, or is about to
// be, in the past.
func (c *Client) finish() (ctxEnded bool) {
	s := c.sent
	c.sent = sent{}
	s.span.End()
	return s.stop != nil && !s.stop()
}

// errNotSent marks a transport failure that happened before the request
// frame reached the connection (or left it truncated, which the listener
// discards unread). Either way the peer never processed the request.
var errNotSent = errors.New("request not sent")

// RequestNotSent reports whether err is a transport failure that provably
// occurred before the peer could process the request, so retrying it —
// even a non-idempotent write — cannot double-apply. Failures after the
// frame was sent (recv errors, EOF) do NOT qualify: the peer may have
// executed the request and lost only the reply.
func RequestNotSent(err error) bool { return errors.Is(err, errNotSent) }

// aLongTimeAgo is the deadline that aborts a connection's blocked I/O at once.
var aLongTimeAgo = time.Unix(1, 0)

// RoundTrip sends one request with its bodies and waits for its response
// (Send, then Wait).
func (c *Client) RoundTrip(ctx context.Context, req Request, bodies [][]byte, recv func(resp *Response, bodies [][]byte, span *telemetry.Span) error) error {
	if err := c.Send(ctx, req, bodies); err != nil {
		return err
	}
	return c.Wait(recv)
}

// Send writes one request with its bodies; Wait reads its response. Until
// then the request is in flight: the caller may do other work — send on
// other connections — but makes no other call on c before Wait, or Close.
// The bodies are written before Send returns.
//
// ctx bounds the exchange on the socket from Send to the end of Wait: its
// end — deadline or cancel — sets a deadline in the past on the connection,
// which aborts a blocked write or read with verr.ErrCanceled; its deadline
// also reaches the handler as timeout_ms. A transport failure — the peer
// unreachable, the connection torn down, ctx ending mid-exchange — leaves
// the stream out of step, so the connection is closed; a connection that
// goes back to a pool never carries a deadline. A traced ctx gets a
// client-side span for the exchange, whose IDs ride the wire so the
// listener attaches its spans to the same trace.
func (c *Client) Send(ctx context.Context, req Request, bodies [][]byte) error {
	if err := verr.Canceled(ctx.Err()); err != nil {
		return err
	}
	if err := checkArgs(req.Args); err != nil {
		return err
	}
	var span *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		span = parent.StartChild("client." + req.Op)
		req.Trace = telemetry.FormatID(span.TraceID())
		req.Span = telemetry.FormatID(span.ID())
	}
	if dl, ok := ctx.Deadline(); ok {
		req.TimeoutMS = max(time.Until(dl).Milliseconds(), 1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lens := c.req.Bodies[:0]
	c.req, c.req.Bodies = req, lens
	enc := span.StartChild("wire.encode")
	c.out.set(&c.req, bodies, false)
	if enc != nil {
		enc.SetAttr("bytes", strconv.Itoa(c.out.size()))
		enc.End()
	}
	c.sent = sent{ctx: ctx, span: span}
	if ctx.Done() != nil {
		c.sent.stop = context.AfterFunc(ctx, c.abort)
	}
	if err := c.out.writeTo(c.conn); err != nil {
		_ = c.conn.Close()
		if c.finish() {
			return verr.Canceled(ctx.Err())
		}
		return fmt.Errorf("wire: %w: %w: %v", verr.ErrNodeDown, errNotSent, err)
	}
	return nil
}

// Wait reads the response to the request Send wrote, mapping error codes
// back to the verr vocabulary. recv, when not nil, takes what the response
// carries: the bodies it is handed alias the connection's read buffer and
// are valid until the next call on c. A transport failure reading the
// response wraps verr.ErrNodeDown (or verr.ErrClosed when the peer closed
// the connection): the remote never produced a coded reply, which is exactly
// the condition a router retries on a replica.
func (c *Client) Wait(recv func(resp *Response, bodies [][]byte, span *telemetry.Span) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx, span := c.sent.ctx, c.sent.span
	if ctx == nil {
		return errors.New("wire: wait without a request in flight")
	}
	frame, err := c.rd.next()
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("wire: connection closed: %w", verr.ErrClosed)
	} else if err != nil {
		err = fmt.Errorf("wire: %w: recv: %v", verr.ErrNodeDown, err)
	}
	c.sent.span = nil // ended below, after the decode
	defer span.End()
	if c.finish() {
		_ = c.conn.Close()
		if err != nil {
			return verr.Canceled(ctx.Err())
		}
	} else if err != nil {
		_ = c.conn.Close()
		return err
	}

	dec := span.StartChild("wire.decode")
	defer dec.End()
	if dec != nil {
		dec.SetAttr("bytes", strconv.Itoa(len(frame)))
	}
	bodies, err := DecodeFrame(frame, &c.resp)
	if err != nil {
		return fmt.Errorf("wire: bad response: %w", err)
	}
	if c.resp.Code != verr.CodeOK {
		return verr.FromCode(c.resp.Code, c.resp.Msg)
	}
	if recv == nil {
		return nil
	}
	return recv(&c.resp, bodies, dec)
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	return c.RoundTrip(ctx, Request{Op: "ping"}, nil, nil)
}

// Call round-trips an extension op: ext is its payload, in the request's
// Ext field, and bodies ride behind it. The listener's handler answers them,
// and the reply's Ext and bodies are returned — aliasing the connection's
// read buffer: decode them before the next call on c. Errors carry verr
// identity like every other op.
func (c *Client) Call(ctx context.Context, op string, ext []byte, bodies [][]byte) (rext []byte, out [][]byte, err error) {
	err = c.RoundTrip(ctx, Request{Op: op, Ext: ext}, bodies, func(resp *Response, bodies [][]byte, _ *telemetry.Span) error {
		rext, out = resp.Ext, bodies
		return nil
	})
	return rext, out, err
}
