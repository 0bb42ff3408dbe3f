package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"verticadr/internal/algos"
	"verticadr/internal/faults"
	"verticadr/internal/server"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// A client's statement enters a clustered node through its Server, as on a
// plain server: admitted by the front door, bounded by QueryTimeout, recorded
// in the node's statement statistics and traced under server.exec, while the
// node's router executes it across the shards.

// With one slot and a one-deep queue at every node's front door and shard
// gate, a burst of routed reads through every node at once either answers
// exactly or is shed with ErrOverloaded, each well inside its deadline: a
// front-door slot never waits on a slot of its own kind, so no node routing
// to itself or to a peer deadlocks. Afterwards every slot is free again.
func TestFrontDoorOverloadShedsRoutedReads(t *testing.T) {
	tc := startClusterWith(t, 3, 3, 2, server.Config{MaxConcurrent: 1, MaxQueue: 1})
	for _, ddl := range pointDDL {
		tc.exec(ddl)
	}
	const rows = 600
	if err := tc.router(0).Load(context.Background(), "events", pointEvents(t, rows)); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT count(*) AS n FROM events`
	const perNode = 16
	const timeout = 10 * time.Second
	type outcome struct {
		err     error
		n       any
		elapsed time.Duration
	}
	var clients []*server.Client
	for _, n := range tc.nodes {
		for range perNode {
			c, err := server.DialTimeout(n.addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			clients = append(clients, c)
		}
	}
	out := make([]outcome, len(clients))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			t0 := time.Now()
			res, err := c.Query(ctx, sql)
			out[i] = outcome{err: err, elapsed: time.Since(t0)}
			if err == nil && len(res.Rows) == 1 {
				out[i].n = res.Rows[0][0]
			}
		}()
	}
	close(start)
	wg.Wait()
	answered, shed := 0, 0
	for i, o := range out {
		switch {
		case o.elapsed >= timeout:
			t.Fatalf("read %d through node %d took %v, past its %v deadline (err %v)", i, i/perNode, o.elapsed, timeout, o.err)
		case o.err == nil:
			if o.n != float64(rows) {
				t.Fatalf("read %d through node %d counted %v, want %d", i, i/perNode, o.n, rows)
			}
			answered++
		case errors.Is(o.err, verr.ErrOverloaded):
			shed++
		default:
			t.Fatalf("read %d through node %d: %v, want an answer or ErrOverloaded", i, i/perNode, o.err)
		}
	}
	t.Logf("%d reads answered, %d shed", answered, shed)
	if shed == 0 {
		t.Fatalf("none of %d concurrent reads was shed by one-slot front doors", len(out))
	}
	for i, n := range tc.nodes {
		if h := n.srv.Health(); h.Inflight != 0 || h.Queued != 0 {
			t.Fatalf("node %d after the burst: %+v", i, h)
		}
		res, err := n.srv.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("node %d after the burst: %v", i, err)
		}
		if got := res.Rows()[0][0]; got != int64(rows) {
			t.Fatalf("node %d after the burst counted %v, want %d", i, got, rows)
		}
	}
}

// A prepared and a one-shot routed statement are each recorded once, on the
// node a client sent them to, under their fingerprint, with calls equal to
// their executions and a latency; the peers that served their shard reads
// record nothing. Traced, the statement's server.admit and server.exec spans
// sit above the router's.
func TestFrontDoorRecordsRoutedStatements(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	for _, ddl := range pointDDL {
		tc.exec(ddl)
	}
	const rows = 600
	if err := tc.router(0).Load(context.Background(), "events", pointEvents(t, rows)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := server.DialTimeout(tc.nodes[1].addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Prepare(ctx, "point", pointSQL); err != nil {
		t.Fatal(err)
	}
	const countSQL = `SELECT count(*) AS n FROM events`
	const points, counts = 5, 3
	for i := range points {
		if res, err := c.Execute(ctx, "point", int64(i*37)); err != nil || len(res.Rows) != 1 {
			t.Fatalf("point %d: %v, %v", i, res, err)
		}
	}
	for range counts {
		if _, err := c.Query(ctx, countSQL+"; "); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{pointSQL: points, countSQL: counts}
	got := map[string]int64{}
	for _, sn := range tc.nodes[1].srv.Statements().Snapshot() {
		if sn.Errors != 0 || sn.P50Secs <= 0 {
			t.Fatalf("%q: %d errors, p50 %v", sn.SQL, sn.Errors, sn.P50Secs)
		}
		got[sn.SQL] = sn.Calls
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the initiator recorded %v, want %v", got, want)
	}
	for _, i := range []int{0, 2} {
		if snaps := tc.nodes[i].srv.Statements().Snapshot(); len(snaps) != 0 {
			t.Fatalf("peer %d recorded shard reads as statements: %+v", i, snaps)
		}
	}

	log := telemetry.Default().Spans()
	root := log.StartSpan("test")
	if _, err := tc.nodes[1].srv.Query(telemetry.ContextWithSpan(ctx, root), countSQL); err != nil {
		t.Fatal(err)
	}
	root.End()
	byName := map[string]telemetry.SpanRecord{}
	for _, sp := range log.Export() {
		if sp.Trace != telemetry.FormatID(root.TraceID()) {
			continue
		}
		if _, seen := byName[sp.Name]; !seen {
			byName[sp.Name] = sp // the first: the statement's own, not a local shard read's
		}
	}
	admit, exec, route := byName["server.admit"], byName["server.exec"], byName["router.aggregate"]
	if admit.ID == 0 || exec.ID == 0 || route.ID == 0 {
		t.Fatalf("trace lacks server.admit, server.exec or router.aggregate: %v", byName)
	}
	if admit.Parent != exec.Parent || route.Parent != exec.ID || exec.Parent == 0 {
		t.Fatalf("server.admit under %d, server.exec %d under %d, router.aggregate under %d",
			admit.Parent, exec.ID, exec.Parent, route.Parent)
	}
}

// QueryTimeout bounds a routed statement as it bounds a local one: with the
// peers' model loads stalled by a faults.Delay rule, a PREDICT through a node
// that holds no shard is canceled at the timeout, long before the stall ends,
// and its error is both verr.ErrCanceled and context.DeadlineExceeded.
func TestFrontDoorTimeoutCancelsRoutedStatement(t *testing.T) {
	const limit, stall = 100 * time.Millisecond, time.Second
	tc := startClusterWith(t, 3, 2, 1, server.Config{QueryTimeout: limit})
	if owned := tc.topo.OwnedShards(2); len(owned) != 0 {
		t.Fatalf("node 2 holds shards %v, want none", owned)
	}
	tc.exec(fmt.Sprintf(testDDL, "t", "HASH(id)"))
	tc.exec(`INSERT INTO t VALUES (1, 2, 3, 1.5, 2.5, 'red', true), (2, 3, 4, -0.5, 0.5, 'blue', false)`)
	model := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{0.25, 1.5, -2.25}, Converged: true}
	for _, n := range tc.nodes {
		if err := n.sess.DeployModel("m", "alice", "", model); err != nil {
			t.Fatal(err)
		}
	}
	inj := faults.New(1)
	inj.MustArm(faults.Rule{Site: faults.SiteModelLoad, Kind: faults.Delay, EveryN: 1, Delay: stall})
	faults.Install(inj)
	defer faults.Install(nil)

	t0 := time.Now()
	_, err := tc.nodes[2].srv.Query(context.Background(),
		`SELECT GlmPredict(x, y USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t`)
	elapsed := time.Since(t0)
	if !errors.Is(err, verr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want verr.ErrCanceled and context.DeadlineExceeded", err)
	}
	if elapsed >= stall {
		t.Fatalf("the statement ran %v: the stall ended it, not the %v timeout", elapsed, limit)
	}
	sn := tc.nodes[2].srv.Statements().Snapshot()
	if len(sn) != 1 || sn[0].Calls != 1 || sn[0].ErrCodes[verr.CodeCanceled] != 1 {
		t.Fatalf("node 2 recorded %+v, want one canceled execution", sn)
	}
}
