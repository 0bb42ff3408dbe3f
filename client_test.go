package verticadr

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"verticadr/internal/algos"
	"verticadr/internal/cluster"
	"verticadr/internal/core"
	"verticadr/internal/server"
	"verticadr/internal/wire"
)

// An in-process 2-node cluster behind the public API: Dial with several
// addresses, run the full client surface, then kill the connected node and
// require transparent failover with prepared-statement replay.

type clientTestNode struct {
	sess *core.Session
	tcp  *server.TCPServer
	addr string
}

func startClientCluster(t *testing.T, n int) []clientTestNode {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		_ = l.Close()
	}
	topo, err := cluster.Topology{Addrs: addrs, Shards: n, Replicas: n}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]clientTestNode, n)
	for i := 0; i < n; i++ {
		sess, err := core.Start(core.Config{DBNodes: topo.Shards, DRWorkers: 2, InstancesPerWorker: 1, BlockRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sess.Close)
		srv := server.New(sess, server.Config{})
		router, err := cluster.NewRouter(cluster.Config{
			Addrs: addrs, Shards: topo.Shards, Replicas: topo.Replicas,
			ProbeInterval: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(router.Close)
		peer := cluster.NewPeer(srv, topo, i)
		tcp, err := server.Listen(srv, addrs[i],
			server.WithFrontend(router),
			server.WithExtension(cluster.NodeExtension(peer, router)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = clientTestNode{sess: sess, tcp: tcp, addr: addrs[i]}
		t.Cleanup(func() { _ = tcp.Close() })
	}
	return nodes
}

func TestClientClusterEndToEnd(t *testing.T) {
	nodes := startClientCluster(t, 2)
	ctx := context.Background()
	cl, err := Dial(ctx, ClusterConfig{Addrs: []string{nodes[0].addr, nodes[1].addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Exec(ctx, `CREATE TABLE pts (id INTEGER, a FLOAT, b FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for i := 0; i < 64; i++ {
		rows = append(rows, []any{int64(i), float64(i%7) / 2, float64(i % 5)})
	}
	if err := cl.Load(ctx, "pts", rows); err != nil {
		t.Fatal(err)
	}

	res, err := cl.Query(ctx, `SELECT count(*) AS n FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	// Front-door rows cross as JSON, so numbers arrive as float64.
	if got := res.Rows[0][0].(float64); got != 64 {
		t.Fatalf("count = %v, want 64", got)
	}

	if err := cl.Prepare(ctx, "big", `SELECT id FROM pts WHERE a > ? ORDER BY id`); err != nil {
		t.Fatal(err)
	}
	ex, err := cl.Execute(ctx, "big", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := len(ex.Rows)
	if firstLen == 0 {
		t.Fatal("prepared execute returned no rows")
	}

	model := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{1, 2, 3}, Converged: true}
	for _, n := range nodes {
		if err := n.sess.DeployModel("m", "me", "client test model", model); err != nil {
			t.Fatal(err)
		}
	}
	pr, err := cl.Predict(ctx, "m", "pts", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Rows) != 64 {
		t.Fatalf("predict returned %d rows, want 64", len(pr.Rows))
	}

	for _, h := range cl.Health(ctx) {
		if !h.Up {
			t.Fatalf("node %d down before the kill: %+v", h.Node, h)
		}
	}

	// Kill the node the client dialed first. Reads must fail over, and the
	// replayed prepared statement must keep answering identically.
	_ = nodes[0].tcp.Close()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping did not fail over: %v", err)
	}
	ex2, err := cl.Execute(ctx, "big", 2.0)
	if err != nil {
		t.Fatalf("prepared execute did not survive failover: %v", err)
	}
	if len(ex2.Rows) != firstLen {
		t.Fatalf("failover execute returned %d rows, want %d", len(ex2.Rows), firstLen)
	}
	res, err = cl.Query(ctx, `SELECT count(*) AS n FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != 64 {
		t.Fatalf("post-failover count = %v, want 64", got)
	}

	hs := cl.Health(ctx)
	if hs[0].Up || !hs[1].Up {
		t.Fatalf("health after kill = %+v", hs)
	}

	// With every node gone, reads surface ErrNodeDown.
	_ = nodes[1].tcp.Close()
	if _, err := cl.Query(ctx, `SELECT count(*) FROM pts`); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("query with no nodes = %v, want ErrNodeDown", err)
	}
}

// startReplyLossNode serves the wire protocol but tears the connection
// down on every "query" request after reading it — the server may have
// executed the statement, only the reply is lost. Pings are answered so
// the node looks healthy at dial time.
func startReplyLossNode(t *testing.T) string {
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
					// A serving frame: u32 header length, the JSON header, no
					// bodies on anything this node answers.
					var req struct {
						Op string `json:"op"`
					}
					if json.Unmarshal(frame[4:4+binary.LittleEndian.Uint32(frame)], &req) == nil && req.Op == "query" {
						return // drop the connection: outcome unknown
					}
					resp, _ := json.Marshal(map[string]string{"code": "ok"})
					if wire.WriteFrame(conn, binary.LittleEndian.AppendUint32(nil, uint32(len(resp))), resp) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// A write whose outcome is unknown — the node read the INSERT and the
// reply was lost — must surface the transport error instead of re-running
// on the next node (which would double-apply rows). Reads keep failing
// over.
func TestWriteDoesNotFailOverAfterSend(t *testing.T) {
	nodes := startClientCluster(t, 1)
	ctx := context.Background()
	setup, err := Dial(ctx, ClusterConfig{Addrs: []string{nodes[0].addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.Exec(ctx, `CREATE TABLE wt (k INTEGER, v FLOAT) SEGMENTED BY HASH(k)`); err != nil {
		t.Fatal(err)
	}

	lossy := startReplyLossNode(t)
	cl, err := Dial(ctx, ClusterConfig{Addrs: []string{lossy, nodes[0].addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	err = cl.Exec(ctx, `INSERT INTO wt VALUES (1, 0.5)`)
	if err == nil {
		t.Fatal("INSERT with lost reply returned nil, want the transport error surfaced")
	}
	if !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrClosed) {
		t.Fatalf("INSERT with lost reply = %v, want a transport error", err)
	}
	// The statement must not have been replayed on the healthy node.
	res, err := setup.Query(ctx, `SELECT count(*) AS n FROM wt`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != 0 {
		t.Fatalf("row count after refused failover = %v, want 0 (no double-apply)", got)
	}

	// The same client still fails reads over to the healthy node.
	res, err = cl.Query(ctx, `SELECT count(*) AS n FROM wt`)
	if err != nil {
		t.Fatalf("read did not fail over: %v", err)
	}
	if got := res.Rows[0][0].(float64); got != 0 {
		t.Fatalf("failover count = %v, want 0", got)
	}
}

// TestDialPlainServer: Dial with one address answers with a working client
// against a single plain (router-less) server, the vdr-serve default.
func TestDialPlainServer(t *testing.T) {
	sess, err := core.Start(core.Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 1, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	if err := sess.ExecContext(context.Background(), `CREATE TABLE kv (k INTEGER, v FLOAT) SEGMENTED BY HASH(k)`); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sess, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	topo, err := cluster.Topology{Addrs: []string{addr}, Shards: 2, Replicas: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := server.Listen(srv, addr,
		server.WithExtension(cluster.NewPeer(srv, topo, 0)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })

	ctx := context.Background()
	cl, err := Dial(ctx, ClusterConfig{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if err := cl.Exec(ctx, fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d.5)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The plain server registers the peer extension too, so the unified
	// Load path works against one node exactly like a cluster.
	if err := cl.Load(ctx, "kv", [][]any{{int64(7), 0.5}, {int64(8), 1.5}}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(ctx, `SELECT count(*) AS n FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != 5 {
		t.Fatalf("count = %v, want 5", got)
	}
}
