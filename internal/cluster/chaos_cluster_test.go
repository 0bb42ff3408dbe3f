package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"verticadr/internal/server"
	"verticadr/internal/sqlexec/difftest"
)

// The replica-kill chaos test: a 3-node cluster at replication factor 2
// loses one peer abruptly (listener and every connection torn down — the
// in-process kill -9) in the middle of an interleaved COPY + SELECT
// workload. The contract under test is the ISSUE's acceptance bar: zero
// failed queries across the kill, loads that keep succeeding on the
// surviving replicas, and a final state bitwise identical to a
// single-process session that received the same batches.
func TestClusterSurvivesReplicaKill(t *testing.T) {
	iters, batchRows := 30, 20
	if testing.Short() {
		iters = 12
	}
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	gen := difftest.NewGen(0xdead)
	schema := difftest.TableSchema()

	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	tc.exec(ddl)

	fdb, err := gen.Table(iters * batchRows)
	if err != nil {
		t.Fatal(err)
	}
	rows := fdb.SrcRows

	probes := []string{
		`SELECT count(*) AS n, sum(x) AS sx FROM t`,
		`SELECT id, a, x, s FROM t WHERE a > 0 ORDER BY id LIMIT 25`,
	}
	victim := 2
	killAt := iters / 3
	for i := 0; i < iters; i++ {
		if i == killAt {
			// kill -9: the listener dies and every open connection drops;
			// in-flight shard writes to the victim have unknown outcomes.
			if err := tc.nodes[victim].tcp.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tc.router(0).Load(ctx, "t", buildBatch(t, schema, rows[i*batchRows:(i+1)*batchRows])); err != nil {
			t.Fatalf("iter %d: routed load failed across kill: %v", i, err)
		}
		if err := base.Load("t", buildBatch(t, schema, rows[i*batchRows:(i+1)*batchRows])); err != nil {
			t.Fatal(err)
		}
		// Queries enter through both surviving initiators; none may fail.
		for qi, sql := range probes {
			got, err := tc.router(qi).Query(ctx, sql)
			if err != nil {
				t.Fatalf("iter %d: query %q failed across kill: %v", i, sql, err)
			}
			ref, err := base.QueryContext(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("iter %d %q", i, sql), ref, got)
		}
	}

	// The loading router observed the missed writes: the victim must be
	// marked down with stale shard replicas recorded.
	health := tc.router(0).Health()
	if health[victim].Up {
		t.Fatalf("victim still marked up after kill: %+v", health[victim])
	}
	if len(health[victim].Stale) == 0 {
		t.Fatalf("victim has no stale shards after missed writes: %+v", health[victim])
	}

	// Restart the victim's listener on the same address (same session, same
	// router, same peer — the process came back). The prober must mark it
	// up again, and reads must stay byte-exact: the shards that missed
	// writes stay retired on the router that observed the misses.
	tcp, err := server.Listen(tc.nodes[victim].srv, tc.nodes[victim].addr,
		server.WithFrontend(tc.nodes[victim].router),
		server.WithExtension(NodeExtension(tc.nodes[victim].peer, tc.nodes[victim].router)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := tc.router(0).Health(); h[victim].Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the restarted victim up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Post-recovery: loads keep skipping the stale replicas, reads keep
	// matching the baseline bitwise.
	finals := []string{
		`SELECT count(*) AS n, sum(x) AS sx, min(y) AS my, max(b) AS mb FROM t`,
		`SELECT a, count(*) AS n, sum(y) AS sy FROM t GROUP BY a ORDER BY a`,
		`SELECT * FROM t ORDER BY id`,
		`SELECT id, x FROM t WHERE flag ORDER BY x DESC, id LIMIT 40`,
	}
	for _, sql := range finals {
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.router(0).Query(ctx, sql)
		if err != nil {
			t.Fatalf("post-recovery query %q failed: %v", sql, err)
		}
		sameResult(t, "post-recovery "+sql, ref, got)
	}
}
