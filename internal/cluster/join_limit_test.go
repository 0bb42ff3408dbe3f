package cluster_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"verticadr"
	"verticadr/internal/cluster"
	"verticadr/internal/telemetry"
)

// TestJoinBuildOverLimitIsTyped: a join that would have to broadcast a table
// over the byte limit fails with verr.ErrJoinTooLarge — matchable with
// errors.Is on the far side of the public client — whether one shard's part
// alone is over (the peer refuses to ship it) or only the shards' sum is
// (the router refuses before decoding). Nothing of an over-limit table is
// retained: the process heap is flat across repeated failures.
func TestJoinBuildOverLimitIsTyped(t *testing.T) {
	const limit = 32 << 10
	addrs, routers := cluster.StartTestCluster(t, 3, 3, 2)
	for _, r := range routers {
		r.SetBuildLimit(limit)
	}
	ctx := context.Background()
	cl, err := verticadr.Dial(ctx, verticadr.ClusterConfig{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// x is incompressible, 8 bytes a row: mid is ~16 KB a shard, ~48 KB in
	// all; big ~64 KB a shard.
	for _, tab := range []struct {
		name string
		rows int
	}{{"facts", 300}, {"small", 100}, {"mid", 6000}, {"big", 24000}} {
		if err := cl.Exec(ctx, "CREATE TABLE "+tab.name+" (id INTEGER, k INTEGER, x FLOAT) SEGMENTED BY HASH(id)"); err != nil {
			t.Fatal(err)
		}
		rows := make([][]any, tab.rows)
		seed := uint64(len(tab.name))
		for i := range rows {
			seed = seed*6364136223846793005 + 1442695040888963407
			rows[i] = []any{int64(i), int64(i % 97), float64(seed>>11) / (1 << 53)}
		}
		if err := cl.Load(ctx, tab.name, rows); err != nil {
			t.Fatal(err)
		}
	}
	join := func(build string) string {
		return "SELECT count(*) AS n, sum(b.x) AS s FROM facts JOIN " + build + " b ON facts.k = b.k"
	}
	if _, err := cl.Query(ctx, join("small")); err != nil {
		t.Fatalf("a build side under the limit: %v", err)
	}
	shipped := telemetry.Default().Counter("cluster_peer_shard_rows_total")
	for _, build := range []string{"mid", "big"} {
		before := shipped.Value()
		_, err := cl.Query(ctx, join(build))
		if !errors.Is(err, verticadr.ErrJoinTooLarge) {
			t.Fatalf("joining %s (over the limit): %v, want ErrJoinTooLarge", build, err)
		}
		if n := shipped.Value() - before; build == "big" && n != 0 {
			t.Fatalf("peers shipped %d rows of big, every shard of which is over the limit alone", n)
		}
	}
	// A co-located join moves nothing, so no limit applies to it.
	if _, err := cl.Query(ctx, "SELECT count(*) AS n FROM big JOIN big b ON big.id = b.id"); err != nil {
		t.Fatalf("co-located self-join of big: %v", err)
	}

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < 30; i++ {
		if _, err := cl.Query(ctx, join("big")); !errors.Is(err, verticadr.ErrJoinTooLarge) {
			t.Fatal(err)
		}
	}
	// big is ~190 KB a copy; thirty retained copies would be ~5.7 MB.
	if after := heap(); after > before+1<<20 {
		t.Fatalf("heap grew from %d to %d bytes over 30 refused joins", before, after)
	}
}
