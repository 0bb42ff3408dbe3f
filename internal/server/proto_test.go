package server

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"verticadr/internal/verr"
)

// End-to-end over real TCP: results round-trip, placeholders bind, and every
// typed error in the verr vocabulary survives the protocol boundary as an
// errors.Is-matchable error.
func TestProtoEndToEnd(t *testing.T) {
	s := testSession(t, 100, 2)
	srv := New(s, Config{MaxConcurrent: 4})
	tcp, err := Listen(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	c, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	rows, err := c.Query(ctx, `SELECT count(*) FROM px`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Cols) != 1 || len(rows.Rows) != 1 {
		t.Fatalf("unexpected result shape: %+v", rows)
	}

	// Prediction through the wire: intercept-only model, everything = 2.
	rows, err = c.Query(ctx, predictSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 100 {
		t.Fatalf("predict returned %d rows, want 100", len(rows.Rows))
	}
	if v, ok := rows.Rows[0][0].(float64); !ok || v != 2 {
		t.Fatalf("prediction = %v, want 2", rows.Rows[0][0])
	}

	// Prepared statement with two placeholders, rebound per execution.
	if err := c.Prepare(ctx, "q", `SELECT x FROM px WHERE x > ? AND x <= ?`); err != nil {
		t.Fatal(err)
	}
	rows, err = c.Execute(ctx, "q", -1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 100 {
		t.Fatalf("execute (-1.5, 0.5] returned %d rows, want 100", len(rows.Rows))
	}
	rows, err = c.Execute(ctx, "q", 0.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 0 {
		t.Fatalf("execute (0.5, 1.5] returned %d rows, want 0", len(rows.Rows))
	}

	// Typed errors across the protocol.
	if _, err := c.Query(ctx, `SELECT x FROM nosuch`); !errors.Is(err, verr.ErrTableNotFound) {
		t.Fatalf("unknown table: err = %v, want verr.ErrTableNotFound", err)
	}
	if _, err := c.Query(ctx, `SELECT nope FROM px`); !errors.Is(err, verr.ErrUnknownColumn) {
		t.Fatalf("unknown column: err = %v, want verr.ErrUnknownColumn", err)
	}
	if _, err := c.Query(ctx, `SELECT GlmPredict(x USING PARAMETERS model='ghost') OVER (PARTITION BEST) FROM px`); !errors.Is(err, verr.ErrModelNotFound) {
		t.Fatalf("unknown model: err = %v, want verr.ErrModelNotFound", err)
	}
}

func TestProtoOverloadedAndCanceled(t *testing.T) {
	s := testSession(t, 64, 1)
	srv := New(s, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 5 * time.Millisecond})
	tcp, err := Listen(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	c, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Hold the only execution slot; wire arrivals overflow the queue and are
	// shed with the typed error, not a hang.
	release, err := srv.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sawOverloaded := false
	for i := 0; i < 3; i++ {
		_, qerr := c.Query(ctx, `SELECT count(*) FROM px`)
		if qerr == nil {
			t.Fatal("query succeeded with the only slot held")
		}
		if errors.Is(qerr, verr.ErrOverloaded) {
			sawOverloaded = true
		}
	}
	if !sawOverloaded {
		t.Fatal("no verr.ErrOverloaded across protocol under saturation")
	}
	release()
	if _, err := c.Query(ctx, `SELECT count(*) FROM px`); err != nil {
		t.Fatalf("post-release query: %v", err)
	}

	// A client-side deadline rides the request and comes back as the typed
	// cancel error.
	dctx, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	if _, err := c.Query(dctx, predictSQL); !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("deadline query: err = %v, want verr.ErrCanceled", err)
	}
}

func TestProtoConcurrentClients(t *testing.T) {
	s := testSession(t, 128, 3)
	srv := New(s, Config{MaxConcurrent: 4})
	tcp, err := Listen(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialTimeout(tcp.Addr(), 0)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ctx := context.Background()
			if err := c.Prepare(ctx, "p", predictSQL); err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				rows, err := c.Execute(ctx, "p")
				if err != nil {
					errs <- err
					return
				}
				if v := rows.Rows[0][0].(float64); v != 3 {
					errs <- errors.New("wrong prediction over concurrent protocol")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Closing the TCP front end leaves the Server reusable in-process.
	if err := tcp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(context.Background(), `SELECT count(*) FROM px`); err != nil {
		t.Fatal(err)
	}
}

// A peer that accepts a connection and never answers must not hold a caller
// past its context: the deadline reaches the socket, and a cancel without one
// aborts the blocked read. The router's prober, peer calls, health probes
// and the library client all make their round trips this way.
func TestRoundTripHonoursContextOnSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }() // read everything, answer nothing
		}
	}()
	timed := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 50*time.Millisecond)
	}
	canceled := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		return ctx, cancel
	}
	for name, call := range map[string]func(context.Context, *Client) error{
		"ping": func(ctx context.Context, c *Client) error { return c.Ping(ctx) },
		"call": func(ctx context.Context, c *Client) error {
			_, err := c.Call(ctx, "cl.health", struct{}{}, nil, nil)
			return err
		},
	} {
		for kind, ctxFor := range map[string]func() (context.Context, context.CancelFunc){"deadline": timed, "cancel": canceled} {
			c, err := DialTimeout(ln.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := ctxFor()
			done := make(chan error, 1)
			start := time.Now()
			go func() { done <- call(ctx, c) }()
			select {
			case err := <-done:
				if !errors.Is(err, verr.ErrCanceled) {
					t.Errorf("%s under a %s: err = %v, want verr.ErrCanceled", name, kind, err)
				}
				if d := time.Since(start); d > time.Second {
					t.Errorf("%s under a %s returned after %v", name, kind, d)
				}
			case <-time.After(2 * time.Second):
				t.Errorf("%s under a %s still blocked after 2s on a silent peer", name, kind)
			}
			cancel()
			_ = c.Close()
		}
	}
}
