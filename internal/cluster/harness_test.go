package cluster

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec"
)

// The in-process cluster harness: N real vdr-serve shapes — session,
// serving layer, router frontend, peer extension — listening on loopback
// TCP, plus a single-process baseline session with the same node count,
// block size and parallelism. Tests drive identical DDL and identical COPY
// batch sequences into both and require bitwise-identical query results.

// testDDL matches difftest.TableSchema column for column.
const testDDL = `CREATE TABLE %s (id INTEGER, a INTEGER, b INTEGER, x FLOAT, y FLOAT, s VARCHAR, flag BOOLEAN) SEGMENTED BY %s`

// freeAddrs reserves n distinct loopback ports by binding and immediately
// releasing them. The tiny window before the harness rebinds is an
// accepted test-only race.
func freeAddrs(t testing.TB, n int) []string {
	t.Helper()
	lis := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range lis {
		_ = l.Close()
	}
	return addrs
}

// testNode is one cluster member: every node is an initiator (router in
// front of its own listener) and a shard server (peer extension behind it).
type testNode struct {
	sess   *core.Session
	srv    *server.Server
	router *Router
	peer   *Peer
	tcp    *server.TCPServer
	addr   string
}

type testCluster struct {
	t     testing.TB
	topo  Topology
	nodes []*testNode
}

// nodeConfig is the session shape every cluster member AND the baseline
// must share for bitwise comparability: the local database opens with one
// node per cluster shard, and block size / UDTF parallelism pin the chunk
// boundaries the executor folds over.
func nodeConfig(shards int) core.Config {
	return core.Config{DBNodes: shards, DRWorkers: 2, InstancesPerWorker: 1, BlockRows: 64}
}

// startCluster brings up peers nodes serving shards shards at replication
// factor replicas, each with its own router frontend.
func startCluster(t testing.TB, peers, shards, replicas int) *testCluster {
	t.Helper()
	return startClusterWith(t, peers, shards, replicas, server.Config{MaxConcurrent: 8, MaxQueue: 64})
}

// startClusterWith is startCluster with every node's server under cfg.
func startClusterWith(t testing.TB, peers, shards, replicas int, cfg server.Config) *testCluster {
	t.Helper()
	addrs := freeAddrs(t, peers)
	topo, err := Topology{Addrs: addrs, Shards: shards, Replicas: replicas}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, topo: topo}
	for i := 0; i < peers; i++ {
		sess, err := core.Start(nodeConfig(topo.Shards))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sess.Close)
		srv := server.New(sess, cfg)
		router, err := NewRouter(Config{
			Addrs:         addrs,
			Shards:        topo.Shards,
			Replicas:      topo.Replicas,
			ProbeInterval: 25 * time.Millisecond,
			DialTimeout:   2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(router.Close)
		peer := NewPeer(srv, topo, i)
		tcp, err := server.Listen(srv, addrs[i],
			server.WithFrontend(router),
			server.WithExtension(NodeExtension(peer, router)))
		if err != nil {
			t.Fatal(err)
		}
		n := &testNode{sess: sess, srv: srv, router: router, peer: peer, tcp: tcp, addr: addrs[i]}
		t.Cleanup(func() { _ = n.tcp.Close() })
		tc.nodes = append(tc.nodes, n)
	}
	return tc
}

// router picks a node's router — rotating the entry point across calls
// exercises "every node is an initiator".
func (tc *testCluster) router(i int) *Router { return tc.nodes[i%len(tc.nodes)].router }

func (tc *testCluster) exec(sql string) {
	tc.t.Helper()
	if _, err := tc.router(0).Query(context.Background(), sql); err != nil {
		tc.t.Fatalf("cluster exec %q: %v", sql, err)
	}
}

// startBaseline is the single-process reference: same node count as the
// cluster has shards, same block size and parallelism.
func startBaseline(t testing.TB, shards int) *core.Session {
	t.Helper()
	sess, err := core.Start(nodeConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// buildBatch boxes rows into a fresh batch. Each side of a comparison gets
// its own batch: loads consume them.
func buildBatch(t testing.TB, schema colstore.Schema, rows [][]any) *colstore.Batch {
	t.Helper()
	b := colstore.NewBatchCap(schema, len(rows))
	for _, r := range rows {
		if err := b.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// loadBoth drives one COPY batch into the baseline session and through the
// cluster router — identical rows, identical batch boundary.
func loadBoth(t *testing.T, base *core.Session, tc *testCluster, table string, schema colstore.Schema, rows [][]any) {
	t.Helper()
	if err := base.Load(table, buildBatch(t, schema, rows)); err != nil {
		t.Fatalf("baseline load: %v", err)
	}
	if err := tc.router(0).Load(context.Background(), table, buildBatch(t, schema, rows)); err != nil {
		t.Fatalf("routed load: %v", err)
	}
}

// sameResult compares two results bitwise: schema names/types, row count,
// and every value with floats by bit pattern (difftest discipline).
func sameResult(t *testing.T, label string, ref, got *sqlexec.Result) {
	t.Helper()
	rs, gs := ref.Schema(), got.Schema()
	if len(rs) != len(gs) {
		t.Fatalf("%s: schema width %d, reference %d", label, len(gs), len(rs))
	}
	for i := range rs {
		if rs[i].Name != gs[i].Name || rs[i].Type != gs[i].Type {
			t.Fatalf("%s: schema col %d is %s/%v, reference %s/%v",
				label, i, gs[i].Name, gs[i].Type, rs[i].Name, rs[i].Type)
		}
	}
	rr, gr := ref.Rows(), got.Rows()
	if len(rr) != len(gr) {
		t.Fatalf("%s: %d rows, reference %d", label, len(gr), len(rr))
	}
	for ri := range rr {
		for ci := range rr[ri] {
			if !bitIdentical(rr[ri][ci], gr[ri][ci]) {
				t.Fatalf("%s: row %d col %d is %#v, reference %#v",
					label, ri, ci, gr[ri][ci], rr[ri][ci])
			}
		}
	}
}

// bitIdentical compares boxed values exactly; floats by bit pattern.
func bitIdentical(a, b any) bool {
	af, aIsF := a.(float64)
	bf, bIsF := b.(float64)
	if aIsF || bIsF {
		return aIsF && bIsF && math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}
