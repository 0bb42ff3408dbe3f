package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"verticadr/internal/server"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/telemetry"
)

// A router reads the replicas its own node holds in process, through the
// peer's own serveShards, and only the other shards over the wire. On a
// 3-peer cluster with 3 shards x 2 replicas, node 0 holds shards 0 and 2.

// shardCallCounts is what the shard-call counters read now: every answered
// shard call, and those answered in process.
func shardCallCounts() (ok, local int64) {
	return mShardCalls("ok").Value(), mShardCallsLocal.Value()
}

// wantShardCalls checks the shard calls answered since (ok0, local0): local
// in process, remote over the wire.
func wantShardCalls(t *testing.T, label string, ok0, local0 int64, local, remote int64) {
	t.Helper()
	ok, l := shardCallCounts()
	if l-local0 != local || ok-ok0-(l-local0) != remote {
		t.Fatalf("%s: %d shard calls answered, %d in process; want %d in process and %d over the wire",
			label, ok-ok0, l-local0, local, remote)
	}
}

// A prepared point read through node 0 makes one network shard call, for
// shard 1, and answers shards 0 and 2 in process: both counted as peer
// reads, each under its own cl.select span, and only one of them behind a
// client round trip.
func TestPointReadMakesOneNetworkCall(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	for _, ddl := range pointDDL {
		tc.exec(ddl)
	}
	const rows = 600
	if err := tc.router(0).Load(context.Background(), "events", pointEvents(t, rows)); err != nil {
		t.Fatal(err)
	}
	r := tc.router(0)
	if err := r.Prepare("point", pointSQL); err != nil {
		t.Fatal(err)
	}
	log := telemetry.Default().Spans()
	root := log.StartSpan("test")
	ctx := telemetry.ContextWithSpan(context.Background(), root)
	ok0, local0 := shardCallCounts()
	peerReads := mPeerOps(opSelect).Value()
	const k = 421
	res, err := r.Execute(ctx, "point", int64(k))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows()
	id := 0
	for id*7919%rows != k {
		id++
	}
	if len(got) != 1 || got[0][0] != float64(id)/8 || got[0][1] != float64(id)/16 {
		t.Fatalf("k = %d: rows %v, want x0 %v, x1 %v", k, got, float64(id)/8, float64(id)/16)
	}
	wantShardCalls(t, "point read through node 0", ok0, local0, 2, 1)
	if n := mPeerOps(opSelect).Value() - peerReads; n != 3 {
		t.Fatalf("cluster_peer_ops_total{op=%q} rose by %d, want 3: local reads count as peer reads", opSelect, n)
	}
	spans := map[string]int{}
	for _, sp := range log.Export() {
		if sp.Trace == telemetry.FormatID(root.TraceID()) {
			spans[sp.Name]++
		}
	}
	if spans["client."+opSelect] != 1 || spans[opSelect] != 3 {
		t.Fatalf("trace has %d client.%s and %d %s spans, want 1 and 3 (all: %v)",
			spans["client."+opSelect], opSelect, spans[opSelect], opSelect, spans)
	}
}

// A local replica the router has marked stale is skipped: its shard goes to
// the next owner over the wire, and the answer is the single-node one bit for
// bit although the stale replica holds rows no other replica has.
func TestStaleLocalReplicaIsSkipped(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	tc.exec(ddl)
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	fdb, err := difftest.NewGen(0x57a1e).Table(120)
	if err != nil {
		t.Fatal(err)
	}
	loadBoth(t, base, tc, "t", difftest.TableSchema(), fdb.SrcRows)
	// Node 0's replica of shard 0 diverges, and router 0 knows it.
	extra := buildBatch(t, difftest.TableSchema(), [][]any{{int64(1 << 40), int64(1), int64(2), 0.5, 0.25, "stale", true}})
	if err := tc.nodes[0].sess.DB.LoadAt("t", 0, extra); err != nil {
		t.Fatal(err)
	}
	tc.router(0).markStale(0, 0)
	for _, sql := range []string{
		`SELECT count(*) AS n, sum(x) AS sx, max(id) AS mi FROM t`,
		`SELECT id, a, x, s FROM t ORDER BY id`,
	} {
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		ok0, local0 := shardCallCounts()
		got, err := tc.router(0).Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, sql, ref, got)
		wantShardCalls(t, sql, ok0, local0, 1, 2)
	}
}

// A local replica that sheds fails over to the shard's remote replica like a
// shedding peer would: the read answers exactly, over the wire, and the node
// stays up. Once the slot is free the reads come home again.
func TestSheddingLocalReplicaFailsOver(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	tc.exec(ddl)
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	fdb, err := difftest.NewGen(0x5bed).Table(120)
	if err != nil {
		t.Fatal(err)
	}
	loadBoth(t, base, tc, "t", difftest.TableSchema(), fdb.SrcRows)

	// Node 0 comes back with one execution slot and a one-deep queue that
	// waits briefly, under the same session and router.
	n := tc.nodes[0]
	if err := n.tcp.Close(); err != nil {
		t.Fatal(err)
	}
	n.srv = server.New(n.sess, server.Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond})
	n.peer = NewPeer(n.srv, tc.topo, 0)
	tcp, err := server.Listen(n.srv, n.addr, server.WithFrontend(n.router), server.WithExtension(NodeExtension(n.peer, n.router)))
	if err != nil {
		t.Fatal(err)
	}
	n.tcp = tcp
	t.Cleanup(func() { _ = tcp.Close() })

	held, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := n.srv.Admit(ctx, "", func(context.Context) (*sqlexec.Result, error) {
			close(held)
			<-release
			return nil, nil
		})
		done <- err
	}()
	<-held

	const sql = `SELECT count(*) AS n, sum(x) AS sx, min(y) AS my FROM t`
	ref, err := base.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	ok0, local0 := shardCallCounts()
	retries := mShardCalls("retry").Value()
	got, err := n.router.Query(ctx, sql)
	if err != nil {
		t.Fatalf("read did not fail over from the shedding local replica: %v", err)
	}
	sameResult(t, "slot held", ref, got)
	wantShardCalls(t, "slot held", ok0, local0, 0, 3)
	if d := mShardCalls("retry").Value() - retries; d != 2 {
		t.Fatalf("%d shard calls retried, want 2: node 0's shards 0 and 2", d)
	}
	if !n.router.Health()[0].Up {
		t.Fatal("a shedding node was marked down")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ok0, local0 = shardCallCounts()
	if got, err = n.router.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "slot free", ref, got)
	wantShardCalls(t, "slot free", ok0, local0, 2, 1)
}

// A router whose node holds every shard hears of DDL run through another
// node's router from its in-process reads alone: their replies carry the
// node's catalog epoch as a remote peer's do, and the newer epoch drops the
// router's cached definitions.
func TestLocalReadsRevealForeignDDL(t *testing.T) {
	tc := startCluster(t, 2, 2, 2)
	tc.exec(fmt.Sprintf(testDDL, "t", "HASH(id)"))
	r := tc.router(0)
	clusterCount(t, r, "t")
	gen := r.tableGen()
	if _, err := tc.router(1).Query(context.Background(), `CREATE TABLE u (id INTEGER) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	ok0, local0 := shardCallCounts()
	clusterCount(t, r, "t")
	wantShardCalls(t, "count through node 0", ok0, local0, 2, 0)
	if r.tableGen() == gen {
		t.Fatal("in-process replies carrying a newer catalog epoch did not drop router 0's cache")
	}
}
