package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"verticadr/internal/algos"
	"verticadr/internal/core"
	"verticadr/internal/faults"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/telemetry"
)

// A routed read writes its remote shard calls, then reads its own node's
// shards, then reads the remote replies: between the send and the read, a
// remote request is in flight while the router works. On a 3-peer cluster
// with 3 shards x 2 replicas, node 0 holds shards 0 and 2 and sends shard 1
// to node 1, whose other replica is on node 2.

const predictSQL = `SELECT GlmPredict(x, y USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t`

// predictCluster is a 3-peer cluster and its baseline holding the same rows
// of t, with model m deployed on the baseline and on the nodes named.
func predictCluster(t *testing.T, nodes ...int) (*testCluster, *core.Session) {
	t.Helper()
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	tc.exec(ddl)
	if err := base.ExecContext(context.Background(), ddl); err != nil {
		t.Fatal(err)
	}
	fdb, err := difftest.NewGen(0x5e4d).Table(300)
	if err != nil {
		t.Fatal(err)
	}
	loadBoth(t, base, tc, "t", difftest.TableSchema(), fdb.SrcRows)
	model := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{0.25, 1.5, -2.25}, Converged: true}
	for _, s := range append([]*core.Session{base}, pick(tc, nodes)...) {
		if err := s.DeployModel("m", "alice", "", model); err != nil {
			t.Fatal(err)
		}
	}
	return tc, base
}

func pick(tc *testCluster, nodes []int) []*core.Session {
	var out []*core.Session
	for _, i := range nodes {
		out = append(out, tc.nodes[i].sess)
	}
	return out
}

// Node 1 dies after router 0 wrote its shard read and before router 0 read
// the reply: node 0's own shards are stalled in their model loads (a
// faults.Delay on models.load, which every node's cold cache hits) when node
// 1's listener closes. The read fails over to shard 1's other replica and
// answers the baseline's rows bit for bit.
func TestReadSurvivesPeerDeathBetweenSendAndWait(t *testing.T) {
	tc, base := predictCluster(t, 0, 1, 2)
	ctx := context.Background()
	ref, err := base.QueryContext(ctx, predictSQL)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 300 * time.Millisecond
	inj := faults.New(1)
	inj.MustArm(faults.Rule{Site: faults.SiteModelLoad, Kind: faults.Delay, EveryN: 1, Delay: stall})
	faults.Install(inj)
	defer faults.Install(nil)

	reads := mPeerOps(opSelect).Value()
	retries := mShardCalls("retry").Value()
	type answer struct {
		rows [][]any
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := tc.router(0).Query(ctx, predictSQL)
		if err != nil {
			done <- answer{err: err}
			return
		}
		done <- answer{rows: res.Rows()}
	}()
	// Node 0's two shard reads and node 1's have begun: node 1 has its
	// request, and every one of them is stalled in its model load.
	deadline := time.Now().Add(5 * time.Second)
	for mPeerOps(opSelect).Value()-reads < 3 {
		if time.Now().After(deadline) {
			t.Fatal("the three shard reads never began")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		_ = tc.nodes[1].tcp.Close()
		close(closed)
	}()
	got := <-done
	<-closed
	if got.err != nil {
		t.Fatalf("the read did not fail over from node 1: %v", got.err)
	}
	want := ref.Rows()
	if len(got.rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(got.rows), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !bitIdentical(want[i][j], got.rows[i][j]) {
				t.Fatalf("row %d col %d is %#v, want %#v", i, j, got.rows[i][j], want[i][j])
			}
		}
	}
	if d := mShardCalls("retry").Value() - retries; d != 1 {
		t.Fatalf("%d shard calls retried, want 1: shard 1 on node 2", d)
	}
	if tc.router(0).Health()[1].Up {
		t.Fatal("node 1 died mid-read and is still up")
	}
}

// A read whose local shards fail for good — node 0 has no model m — leaves
// the reply node 1 was sent unread, and its connection goes: the next read
// through node 0 must not find that reply waiting in the pool.
func TestLocalFailureLeavesNoUnreadReply(t *testing.T) {
	tc, base := predictCluster(t, 1, 2)
	ctx := context.Background()
	r := tc.router(0)
	reads := mPeerOps(opSelect).Value()
	if _, err := r.Query(ctx, predictSQL); err == nil {
		t.Fatal("a PREDICT of a model node 0 lacks answered")
	}
	// Node 1 was sent shard 1 before node 0 read its own: it reads that
	// request although its reply is never read.
	for deadline := time.Now().Add(5 * time.Second); mPeerOps(opSelect).Value()-reads < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("%d shard reads began, want 3: node 1 must have been sent shard 1", mPeerOps(opSelect).Value()-reads)
		}
		time.Sleep(time.Millisecond)
	}
	const countSQL = `SELECT count(*) AS n, sum(x) AS sx, min(s) AS ms FROM t`
	ref, err := base.QueryContext(ctx, countSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		got, err := r.Query(ctx, countSQL)
		if err != nil {
			t.Fatalf("read %d after the failed one: %v", i, err)
		}
		sameResult(t, countSQL, ref, got)
	}
}

// A traced point read through node 0 starts its remote client.cl.select span
// before node 0 starts reading its first local shard: both happen on the
// caller's goroutine, the send first.
func TestRemoteCallSentBeforeLocalWork(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	for _, ddl := range pointDDL {
		tc.exec(ddl)
	}
	if err := tc.router(0).Load(context.Background(), "events", pointEvents(t, 600)); err != nil {
		t.Fatal(err)
	}
	if err := tc.nodes[0].srv.Prepare("point", pointSQL); err != nil {
		t.Fatal(err)
	}
	log := telemetry.Default().Spans()
	root := log.StartSpan("test")
	_, err := tc.router(0).Execute(telemetry.ContextWithSpan(context.Background(), root), "point", int64(421))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	var spans []telemetry.SpanRecord
	route := int64(0)
	for _, sp := range log.Export() {
		if sp.Trace == telemetry.FormatID(root.TraceID()) {
			spans = append(spans, sp)
			if sp.Name == "router.rows" {
				route = sp.ID
			}
		}
	}
	if route == 0 {
		t.Fatalf("no router.rows span in %v", spans)
	}
	var client, local *telemetry.SpanRecord
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Name == "client."+opSelect && client == nil:
			client = sp
		case sp.Name == opSelect && sp.Parent == route && local == nil:
			local = sp
		}
	}
	if client == nil || local == nil {
		t.Fatalf("trace lacks a client.%s or a local %s span: %v", opSelect, opSelect, spans)
	}
	if client.Start >= local.Start {
		t.Fatalf("client.%s started at %v, after node 0's first local %s at %v", opSelect, client.Start, opSelect, local.Start)
	}
}
