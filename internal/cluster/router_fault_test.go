package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/server"
	"verticadr/internal/verr"
	"verticadr/internal/wire"
)

// Regression tests for the router's failure classification: which errors
// retire replicas, which preserve their identity across the shard fan-out,
// and how pooled connections behave across a peer restart.

func noStale(t *testing.T, r *Router, when string) {
	t.Helper()
	for _, h := range r.Health() {
		if len(h.Stale) != 0 {
			t.Fatalf("%s: node %d has stale shards %v, want none", when, h.Node, h.Stale)
		}
	}
}

func clusterCount(t *testing.T, r *Router, table string) int64 {
	t.Helper()
	res, err := r.Query(context.Background(), fmt.Sprintf(`SELECT count(*) AS n FROM %s`, table))
	if err != nil {
		t.Fatalf("count(%s): %v", table, err)
	}
	return res.Rows()[0][0].(int64)
}

func smallSchema() colstore.Schema {
	return colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
	}
}

func smallRows(n, from int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(from + i), float64(i) / 4}
	}
	return rows
}

// A canceled COPY was never applied by any replica, so it must not retire
// them: the error keeps its ErrCanceled identity and the cluster keeps
// serving reads and writes on every shard.
func TestCanceledLoadDoesNotRetireReplicas(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	tc.exec(`CREATE TABLE cx (id INTEGER, x FLOAT) SEGMENTED BY HASH(id)`)
	r := tc.router(0)
	ctx := context.Background()
	if err := r.Load(ctx, "cx", buildBatch(t, smallSchema(), smallRows(32, 0))); err != nil {
		t.Fatalf("seed load: %v", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	err := r.Load(canceled, "cx", buildBatch(t, smallSchema(), smallRows(32, 100)))
	if !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("canceled load error = %v, want ErrCanceled", err)
	}
	if errors.Is(err, verr.ErrNodeDown) {
		t.Fatalf("canceled load misclassified as node failure: %v", err)
	}
	noStale(t, r, "after canceled load")

	// The shards still serve both reads and writes from every node.
	if got := clusterCount(t, r, "cx"); got != 32 {
		t.Fatalf("count after canceled load = %v, want 32", got)
	}
	if err := r.Load(ctx, "cx", buildBatch(t, smallSchema(), smallRows(8, 200))); err != nil {
		t.Fatalf("load after canceled load: %v", err)
	}
	if got := clusterCount(t, tc.router(1), "cx"); got != 40 {
		t.Fatalf("final count = %v, want 40", got)
	}
}

// A COPY that fails on every replica (cluster fully unreachable) leaves the
// replicas mutually consistent: none may be retired, and after the nodes
// come back the shards must serve again — the bug was a permanent
// ErrNodeDown on every touched shard.
func TestLoadFailedEverywhereDoesNotRetireReplicas(t *testing.T) {
	tc := startCluster(t, 2, 2, 2)
	tc.exec(`CREATE TABLE fx (id INTEGER, x FLOAT) SEGMENTED BY HASH(id)`)
	r := tc.router(0)
	ctx := context.Background()
	if err := r.Load(ctx, "fx", buildBatch(t, smallSchema(), smallRows(16, 0))); err != nil {
		t.Fatalf("seed load: %v", err)
	}

	for _, n := range tc.nodes {
		_ = n.tcp.Close()
	}
	err := r.Load(ctx, "fx", buildBatch(t, smallSchema(), smallRows(16, 100)))
	if !errors.Is(err, verr.ErrNodeDown) {
		t.Fatalf("load with cluster down = %v, want ErrNodeDown", err)
	}
	noStale(t, r, "after failed-everywhere load")

	for _, n := range tc.nodes {
		tcp, err := server.Listen(n.srv, n.addr,
			server.WithFrontend(n.router),
			server.WithExtension(NodeExtension(n.peer, n.router)))
		if err != nil {
			t.Fatalf("restart %s: %v", n.addr, err)
		}
		n.tcp = tcp
		t.Cleanup(func() { _ = tcp.Close() })
	}
	// The prober (25ms interval) restores the peers; then every shard must
	// answer with the pre-outage contents.
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := r.Query(ctx, `SELECT count(*) AS n FROM fx`)
		if err == nil {
			if got := res.Rows()[0][0].(int64); got != 16 {
				t.Fatalf("count after recovery = %v, want 16", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never recovered: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	noStale(t, r, "after recovery")
}

// startSheddingPeer serves the wire protocol but answers every request with
// the overloaded code, simulating a peer whose admission control sheds.
func startSheddingPeer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var buf []byte
				for {
					frame, err := wire.ReadFrame(conn, buf)
					if err != nil {
						return
					}
					buf = frame
					resp, _ := json.Marshal(map[string]string{
						"code": verr.CodeOverloaded, "msg": "admission shed",
					})
					if wire.WriteFrame(conn, binary.LittleEndian.AppendUint32(nil, uint32(len(resp))), resp) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// When every replica of a shard sheds with ErrOverloaded, the router must
// surface ErrOverloaded — the documented back-off signal — not ErrNodeDown,
// which clients treat as a transport failure and answer with a cross-node
// retry storm.
func TestAllReplicasSheddingPreservesOverloaded(t *testing.T) {
	addrs := []string{startSheddingPeer(t), startSheddingPeer(t)}
	r, err := NewRouter(Config{Addrs: addrs, Shards: 2, Replicas: 2, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	_, err = r.Query(context.Background(), `SELECT count(*) AS n FROM t`)
	if !errors.Is(err, verr.ErrOverloaded) {
		t.Fatalf("all-replicas-shedding error = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, verr.ErrNodeDown) {
		t.Fatalf("shed misclassified as node failure: %v", err)
	}
	for _, h := range r.Health() {
		if !h.Up {
			t.Fatalf("shedding peer %d marked down: %+v", h.Node, h)
		}
	}
}

// A peer restart strands dead connections in the pool. The next call must
// absorb that — retry once over a fresh dial — instead of failing the query
// and marking the healthy peer down until the prober restores it.
func TestPooledConnSurvivesPeerRestart(t *testing.T) {
	tc := startCluster(t, 1, 2, 1)
	tc.exec(`CREATE TABLE px (id INTEGER, x FLOAT) SEGMENTED BY HASH(id)`)
	n := tc.nodes[0]
	r := n.router
	ctx := context.Background()
	if err := r.Load(ctx, "px", buildBatch(t, smallSchema(), smallRows(16, 0))); err != nil {
		t.Fatalf("seed load: %v", err)
	}
	if got := clusterCount(t, r, "px"); got != 16 {
		t.Fatalf("count = %v, want 16", got)
	}

	// Bounce the peer's listener: pooled connections are now dead, the
	// peer itself is immediately healthy again.
	_ = n.tcp.Close()
	tcp, err := server.Listen(n.srv, n.addr,
		server.WithFrontend(n.router),
		server.WithExtension(NodeExtension(n.peer, n.router)))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	n.tcp = tcp
	t.Cleanup(func() { _ = tcp.Close() })

	if got := clusterCount(t, r, "px"); got != 16 {
		t.Fatalf("count after restart = %v, want 16", got)
	}
	for _, h := range r.Health() {
		if !h.Up {
			t.Fatalf("restarted peer marked down: %+v", h)
		}
	}
}
