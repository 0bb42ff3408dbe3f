package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"verticadr/internal/verr"
)

// echoListener serves "echo" (the request's bodies come back), "shed" (a
// coded overload) and "sink" (a bare ok), and refuses anything else.
func echoListener(t *testing.T) *Listener {
	t.Helper()
	l, err := Listen("127.0.0.1:0", "test", func(_ context.Context, req *Request, bodies [][]byte, out *Reply) error {
		switch req.Op {
		case "echo":
			out.Respond(MaxFrameBytes, Response{Code: verr.CodeOK}, bodies)
			return nil
		case "shed":
			return fmt.Errorf("busy: %w", verr.ErrOverloaded)
		case "sink":
			return nil
		}
		return fmt.Errorf("unknown op %q", req.Op)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

func dial(t *testing.T, l *Listener) *Client {
	t.Helper()
	c, err := Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// A handler's error comes back coded on a connection that stays in step; a
// handler that answers nothing answers ok; bodies cross uncopied by value.
func TestListenerAnswersEveryRequest(t *testing.T) {
	l := echoListener(t)
	c := dial(t, l)
	ctx := context.Background()
	if _, err := c.Call(ctx, "shed", nil, nil, nil); !errors.Is(err, verr.ErrOverloaded) {
		t.Fatalf("shed: err = %v, want verr.ErrOverloaded", err)
	}
	if _, err := c.Call(ctx, "nosuch", nil, nil, nil); err == nil || verr.Code(err) != verr.CodeInternal {
		t.Fatalf("unknown op: err = %v, want an internal-coded error", err)
	}
	if _, err := c.Call(ctx, "sink", map[string]int{"n": 1}, [][]byte{[]byte("x")}, nil); err != nil {
		t.Fatalf("sink: %v", err)
	}
	in := [][]byte{[]byte("a\x00b"), nil, bytes.Repeat([]byte{7}, 10_000)}
	out, err := c.Call(ctx, "echo", nil, in, nil)
	if err != nil || len(out) != len(in) {
		t.Fatalf("echo: %d bodies, %v", len(out), err)
	}
	for i := range in {
		if !bytes.Equal(out[i], in[i]) {
			t.Fatalf("echo body %d changed", i)
		}
	}
}

// A client reuses one read buffer and one head across small round trips; a
// large response is read into a pooled buffer that goes back to the pool at
// the next round trip, or when the client goes back to a Pool.
func TestClientBuffersReusedSmallReleasedLarge(t *testing.T) {
	l := echoListener(t)
	c := dial(t, l)
	ctx := context.Background()
	small, large := make([]byte, 10), make([]byte, 2<<20)
	echo := func(body []byte) {
		t.Helper()
		out, err := c.Call(ctx, "echo", nil, [][]byte{body}, nil)
		if err != nil || len(out) != 1 || len(out[0]) != len(body) {
			t.Fatalf("echo of %d bytes: %v", len(body), err)
		}
	}
	echo(small)
	echo(small)
	in, head := c.rd.buf[:1], c.out.head.Bytes()[:1]
	echo(small)
	if &c.rd.buf[:1][0] != &in[0] || &c.out.head.Bytes()[:1][0] != &head[0] {
		t.Fatal("small round trips did not reuse the client's frame buffers")
	}
	echo(large)
	if cap(c.rd.buf) < len(large) {
		t.Fatalf("a 2 MB response read into a %d-byte buffer", cap(c.rd.buf))
	}
	echo(small)
	if cap(c.rd.buf) > keepBufBytes {
		t.Fatalf("client kept a %d-byte frame buffer past a small response", cap(c.rd.buf))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 5 {
		echo(large)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / 5; got > 1<<20 && !raceDetector {
		t.Fatalf("a run of 2 MB responses allocated %d bytes a round trip", got)
	}
	p := NewPool(l.Addr(), time.Second)
	p.Put(c)
	if c.rd.buf != nil {
		t.Fatalf("a pooled client idles with a %d-byte frame buffer", cap(c.rd.buf))
	}
	p.Flush()
}

// A stream of large requests — a transfer's messages — crosses with no
// frame-sized allocation on either end once warm: the sender's bodies go out
// uncopied, and the listener reads each into a pooled buffer, the one it
// gave back after the last as a rule.
func TestLargeRequestsReadWithoutAllocating(t *testing.T) {
	l := echoListener(t)
	c := dial(t, l)
	ctx := context.Background()
	msg := [][]byte{make([]byte, 3<<20)}
	send := func() {
		if _, err := c.Call(ctx, "sink", nil, msg, nil); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if raceDetector {
		t.Skip("allocation pins mean nothing under -race")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, send)
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 21; perCall > uint64(len(msg[0])/4) {
		t.Fatalf("a 3 MB request allocated %d bytes/op across both ends", perCall)
	}
	if allocs > 40 {
		t.Fatalf("a 3 MB request: %v allocs/op across both ends", allocs)
	}
}

// A round trip its context cut short leaves the connection out of step — the
// late response is still on its way — so the connection is closed: the next
// call on it fails as a transport error instead of reading a stale reply,
// and the listener goes on serving fresh connections.
func TestDeadlineAbortClosesConn(t *testing.T) {
	l, err := Listen("127.0.0.1:0", "test", func(ctx context.Context, req *Request, _ [][]byte, _ *Reply) error {
		if req.Op == "slow" {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	c := dial(t, l)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "slow", nil, nil, nil); !errors.Is(err, verr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call under a 20ms deadline: err = %v", err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, verr.ErrNodeDown) || !RequestNotSent(err) {
		t.Fatalf("call on an aborted connection: err = %v, want an unsent transport failure", err)
	}
	if err := dial(t, l).Ping(context.Background()); err != nil {
		t.Fatalf("fresh connection after an abort: %v", err)
	}
}
