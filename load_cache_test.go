package verticadr

import (
	"context"
	"fmt"
	"net"
	"testing"

	"verticadr/internal/cluster"
	"verticadr/internal/core"
	"verticadr/internal/server"
	"verticadr/internal/telemetry"
)

// startPlainNode serves one unclustered node with the peer extension, the
// shape Load meets on a plain vdr-serve.
func startPlainNode(t *testing.T) string {
	t.Helper()
	sess, err := core.Start(core.Config{DBNodes: 2, DRWorkers: 2, InstancesPerWorker: 1, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
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
	tcp, err := server.Listen(srv, addr, server.WithExtension(cluster.NewPeer(srv, topo, 0)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	return addr
}

// Load keeps the table's definition per connection: a COPY is one round
// trip. When another client drops the table and re-creates it with other
// columns, the next Load either lands under the new definition or fails as
// a fresh client's Load fails — never applies a row under the old one —
// through one node or through a cluster's router.
func TestLoadAfterTableRecreated(t *testing.T) {
	for _, shape := range []string{"single", "routed"} {
		t.Run(shape, func(t *testing.T) {
			var mine, other string
			if shape == "single" {
				mine = startPlainNode(t)
				other = mine
			} else {
				nodes := startClientCluster(t, 3)
				mine, other = nodes[0].addr, nodes[2].addr
			}
			ctx := context.Background()
			dial := func(addr string) *Client {
				t.Helper()
				c, err := Dial(ctx, ClusterConfig{Addrs: []string{addr}})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			a, b := dial(mine), dial(other)
			defer a.Close()
			defer b.Close()
			exec := func(sql string) {
				t.Helper()
				if err := b.Exec(ctx, sql); err != nil {
					t.Fatal(err)
				}
			}
			count := func() string {
				t.Helper()
				res, err := b.Query(ctx, `SELECT count(*) FROM kv`)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(res.Rows[0][0])
			}
			exec(`CREATE TABLE kv (k INTEGER, v FLOAT) SEGMENTED BY HASH(k)`)
			tabledefs := telemetry.Default().Counter("cluster_peer_ops_total", telemetry.L("op", "cl.tabledef"))
			var before int64
			for i := 0; i < 4; i++ {
				if err := a.Load(ctx, "kv", [][]any{{int64(i), 0.5}}); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					before = tabledefs.Value()
				}
			}
			if n := tabledefs.Value() - before; n != 0 {
				t.Fatalf("3 loads after the first fetched a definition %d times, want none", n)
			}
			for _, c := range []struct {
				ddl  string
				rows [][]any
			}{
				// The rows fit only the new definition.
				{`CREATE TABLE kv (k INTEGER, v FLOAT, w INTEGER) SEGMENTED BY HASH(k)`, [][]any{{int64(1), 0.5, int64(7)}}},
				// Rows of the old shape fit neither.
				{`CREATE TABLE kv (k INTEGER, v VARCHAR) SEGMENTED BY HASH(k)`, [][]any{{int64(2), 1.5}}},
				{`CREATE TABLE kv (k INTEGER, v INTEGER) SEGMENTED BY HASH(k)`, [][]any{{int64(3), int64(9)}}},
				// The rows fit the old definition too: the node refuses the
				// batch built under it.
				{`CREATE TABLE kv (k INTEGER, v FLOAT) SEGMENTED BY HASH(k)`, [][]any{{int64(4), int64(8)}}},
				{`CREATE TABLE kv (k INTEGER, v VARCHAR) SEGMENTED BY HASH(k)`, [][]any{{int64(5), "x"}}},
			} {
				exec(`DROP TABLE kv`)
				exec(c.ddl)
				n0 := count()
				errA := a.Load(ctx, "kv", c.rows)
				n1 := count()
				fresh := dial(mine)
				errF := fresh.Load(ctx, "kv", c.rows)
				fresh.Close()
				n2 := count()
				if (errA == nil) != (errF == nil) {
					t.Fatalf("%s: load after re-creation: %v, a fresh client's: %v", c.ddl, errA, errF)
				}
				want := n0
				if errA == nil {
					want = fmt.Sprint(len(c.rows))
				}
				if n1 != want || errF == nil && n2 == n1 {
					t.Fatalf("%s: rows %s -> %s -> %s (load error %v)", c.ddl, n0, n1, n2, errA)
				}
			}
		})
	}
}
