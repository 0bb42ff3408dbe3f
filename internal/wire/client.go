package wire

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

	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// Client is one connection to a Listener. It is safe for sequential use;
// open one Client per concurrent request stream.
type Client struct {
	mu    sync.Mutex
	conn  net.Conn
	abort func() // sets a deadline in the past: ctx's end on the socket
	rd    reader // the last response frame: reply bodies alias it
	out   frame
	req   Request
	resp  Response
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

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

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

// RoundTrip sends one request with its bodies and decodes one response,
// mapping error codes back to the verr vocabulary. recv, when not nil, takes
// what the response carries: the bodies it is handed alias the connection's
// read buffer and are valid until the next call on c.
//
// ctx bounds the exchange on the socket: its end — deadline or cancel —
// sets a deadline in the past on the connection, which aborts a blocked
// write or read with verr.ErrCanceled; its deadline also reaches the handler
// as timeout_ms. A transport failure — the peer unreachable, the connection
// torn down, ctx ending mid-exchange — leaves the stream out of step, so the
// connection is closed; a connection that goes back to a pool never carries
// a deadline.
func (c *Client) RoundTrip(ctx context.Context, req Request, bodies [][]byte, recv func(resp *Response, bodies [][]byte, span *telemetry.Span) error) error {
	if err := verr.Canceled(ctx.Err()); err != nil {
		return err
	}
	// A traced context gets a client-side request span whose IDs ride the
	// wire, letting the listener attach its spans to the same trace.
	var span *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		span = parent.StartChild("client." + req.Op)
		defer span.End()
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
	err := c.out.set(&c.req, &c.req.Bodies, bodies, false)
	if enc != nil {
		enc.SetAttr("bytes", strconv.Itoa(c.out.size()))
		enc.End()
	}
	if err != nil {
		return err
	}

	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.abort)
	}
	frame, err := c.exchange()
	if stop != nil && !stop() {
		// ctx ended during the exchange: whatever came of it, the
		// connection's deadline is (or is about to be) in the past.
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
	c.resp = Response{}
	if bodies, err = DecodeFrame(frame, &c.resp, &c.resp.Bodies); err != nil {
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

// exchange writes the request frame and reads the response frame. Transport
// failures wrap verr.ErrNodeDown: the remote never produced a (coded) reply,
// which is exactly the condition a router retries on a replica.
func (c *Client) exchange() ([]byte, error) {
	if err := c.out.writeTo(c.conn); err != nil {
		return nil, fmt.Errorf("wire: %w: %w: %v", verr.ErrNodeDown, errNotSent, err)
	}
	frame, err := c.rd.next()
	if errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("wire: connection closed: %w", verr.ErrClosed)
	} else if err != nil {
		return nil, fmt.Errorf("wire: %w: recv: %v", verr.ErrNodeDown, err)
	}
	return frame, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	return c.RoundTrip(ctx, Request{Op: "ping"}, nil, nil)
}

// Call round-trips an extension op: payload marshals into the request's Ext
// field and bodies ride behind it, the listener's handler answers them, the
// reply's Ext unmarshals into reply (skipped when reply is nil) and the
// reply's bodies are returned — aliasing the connection's read buffer:
// decode them before the next call on c. Errors carry verr identity like
// every other op.
func (c *Client) Call(ctx context.Context, op string, payload any, bodies [][]byte, reply any) (out [][]byte, err error) {
	req := Request{Op: op}
	if payload != nil {
		if req.Ext, err = json.Marshal(payload); err != nil {
			return nil, fmt.Errorf("wire: %s payload: %w", op, err)
		}
	}
	err = c.RoundTrip(ctx, req, bodies, func(resp *Response, bodies [][]byte, _ *telemetry.Span) error {
		out = bodies
		if reply == nil {
			return nil
		}
		if len(resp.Ext) == 0 {
			return fmt.Errorf("wire: %s: empty extension reply", op)
		}
		return json.Unmarshal(resp.Ext, reply)
	})
	return out, err
}
