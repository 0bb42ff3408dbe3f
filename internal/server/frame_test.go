package server

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"verticadr/internal/core"
	"verticadr/internal/verr"
)

// wideSession serves table big: rows distinct FLOATs, which no encoding
// shrinks, so a SELECT of them is an 8-bytes-a-row response.
func wideSession(t *testing.T, rows int) (*TCPServer, *Client) {
	t.Helper()
	s, err := core.Start(core.Config{DBNodes: 1, DRWorkers: 1, InstancesPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	if err := s.ExecContext(ctx, `CREATE TABLE big (x FLOAT)`); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Sqrt(float64(i + 2))
	}
	if err := s.DB.LoadColumns("big", [][]float64{x}); err != nil {
		t.Fatal(err)
	}
	tcp, err := Listen(New(s, Config{}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	c, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return tcp, c
}

// A response over the frame limit must come back as a coded error on a
// connection that stays usable. Dropping the connection instead reads as a
// dead node to the unified client, which then re-runs the statement on every
// configured address.
func TestOversizedResponseIsAnErrorFrame(t *testing.T) {
	tcp, c := wideSession(t, 5000)
	tcp.SetMaxFrame(16 << 10)
	ctx := context.Background()
	_, err := c.Query(ctx, `SELECT x FROM big`)
	if err == nil {
		t.Fatal("a 40 KB result crossed a 16 KB frame limit")
	}
	if errors.Is(err, verr.ErrNodeDown) || errors.Is(err, verr.ErrClosed) {
		t.Fatalf("oversized response surfaced as a transport failure: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeds the 16384-byte frame limit") || !strings.Contains(err.Error(), "response of 4") {
		t.Fatalf("error does not name the size and the limit: %v", err)
	}
	// A second FLOAT column is a second part written from its column: the
	// limit counts every part.
	if _, err = c.Query(ctx, `SELECT x, x + 1 AS y FROM big`); err == nil || !strings.Contains(err.Error(), "exceeds the 16384-byte frame limit") || !strings.Contains(err.Error(), "response of 8") {
		t.Fatalf("an 80 KB result of two FLOAT columns against a 16 KB frame limit: %v", err)
	}
	rows, err := c.Query(ctx, `SELECT count(*) FROM big`)
	if err != nil {
		t.Fatalf("connection unusable after an oversized response: %v", err)
	}
	if rows.Rows[0][0] != 5000.0 {
		t.Fatalf("count after an oversized response = %v", rows.Rows[0][0])
	}
	if rows, err = c.Query(ctx, `SELECT x FROM big WHERE x < 10`); err != nil || len(rows.Rows) != 98 {
		t.Fatalf("a result under the limit: %d rows, %v", len(rows.Rows), err)
	}
}

// A connection reuses one buffer across its small frames and does not keep
// the largest frame it ever saw.
func TestConnBuffersReusedSmallReleasedLarge(t *testing.T) {
	_, c := wideSession(t, 200_000)
	ctx := context.Background()
	small := func() {
		t.Helper()
		if rows, err := c.Query(ctx, `SELECT count(*) FROM big`); err != nil || rows.Rows[0][0] != 200000.0 {
			t.Fatalf("count: %v, %v", rows, err)
		}
	}
	small()
	small()
	in, out := c.in[:1], c.out.head[:1]
	small()
	if &c.in[:1][0] != &in[0] || &c.out.head[:1][0] != &out[0] {
		t.Fatal("small round trips did not reuse the client's frame buffers")
	}
	rows, err := c.Query(ctx, `SELECT x FROM big`)
	if err != nil || len(rows.Rows) != 200_000 {
		t.Fatalf("large result: %v", err)
	}
	if c.in != nil {
		t.Fatalf("client kept a %d-byte frame buffer after a 1.6 MB response", cap(c.in))
	}
	small()
	if cap(c.in) == 0 || cap(c.in) > keepBufBytes {
		t.Fatalf("client frame buffer after the next small response: cap %d", cap(c.in))
	}

	if kept(make([]byte, 10, keepBufBytes+1)) != nil {
		t.Fatal("kept keeps a buffer over keepBufBytes")
	}
	if b := kept(make([]byte, 10, keepBufBytes)); cap(b) != keepBufBytes || len(b) != 0 {
		t.Fatalf("kept drops a buffer of keepBufBytes: len %d cap %d", len(b), cap(b))
	}

	// Steady state, both ends of the connection in this process: a ping
	// allocates a fixed handful of small objects, none of them a frame.
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ping round trip: %v allocs", allocs)
	if allocs > 30 {
		t.Fatalf("ping round trip: %v allocs/op, want <= 30", allocs)
	}
}
