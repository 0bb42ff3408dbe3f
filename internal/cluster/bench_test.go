package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/server"
)

// The benchmark's point read — `SELECT x0, x1 FROM events WHERE k = ?`, one
// row through an index on k — as a serving-protocol client runs it:
// BenchmarkRoutedPoint against node 0 of a three-peer cluster with 3 shards
// x 2 replicas (the cluster_routed shape: client → router → shards 0 and 2
// read on node 0 in process, shard 1 on node 1 over the wire → merge),
// BenchmarkSinglePoint against one server over the same rows (serve_single's
// shape). `make bench-point` runs both with -benchmem. Profile a read with
//
//	go test -run '^$' -bench RoutedPoint -benchtime 3s -cpuprofile cpu.out ./internal/cluster/
const (
	pointSQL  = `SELECT x0, x1 FROM events WHERE k = ?`
	pointRows = 30_000
)

var pointDDL = []string{
	`CREATE TABLE events (id INTEGER, k INTEGER, x0 FLOAT, x1 FLOAT) SEGMENTED BY HASH(id)`,
	`CREATE INDEX events_k ON events (k)`,
}

// pointEvents is the table's n rows: k a permutation of id (7919 is prime
// and divides no n used here), so zone maps cannot answer for the index.
func pointEvents(tb testing.TB, n int) *colstore.Batch {
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "k", Type: colstore.TypeInt64},
		{Name: "x0", Type: colstore.TypeFloat64}, {Name: "x1", Type: colstore.TypeFloat64},
	}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i * 7919 % n), float64(i) / 8, float64(i) / 16}
	}
	return buildBatch(tb, schema, rows)
}

func BenchmarkRoutedPoint(b *testing.B) {
	tc := startCluster(b, 3, 3, 2)
	for _, ddl := range pointDDL {
		tc.exec(ddl)
	}
	if err := tc.router(0).Load(context.Background(), "events", pointEvents(b, pointRows)); err != nil {
		b.Fatal(err)
	}
	benchPoint(b, tc.nodes[0].addr)
}

func BenchmarkSinglePoint(b *testing.B) {
	sess := startBaseline(b, 3)
	for _, ddl := range pointDDL {
		if err := sess.ExecContext(context.Background(), ddl); err != nil {
			b.Fatal(err)
		}
	}
	if err := sess.Load("events", pointEvents(b, pointRows)); err != nil {
		b.Fatal(err)
	}
	tcp, err := server.Listen(server.New(sess, server.Config{}), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = tcp.Close() })
	benchPoint(b, tcp.Addr())
}

// benchPoint prepares the point statement on one connection to addr and, in
// a sub-benchmark — so the deployment is built once, not once per b.N —
// executes it b.N times over a spread of keys, each read checked for its one
// row.
func benchPoint(b *testing.B, addr string) {
	ctx := context.Background()
	c, err := server.DialTimeout(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	if err := c.Prepare(ctx, "point", pointSQL); err != nil {
		b.Fatal(err)
	}
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			k := int64(i * 104729 % pointRows)
			rows, err := c.Execute(ctx, "point", k)
			if err != nil || len(rows.Rows) != 1 {
				b.Fatal(fmt.Sprintf("k = %d: %v rows, %v", k, rows, err))
			}
		}
	})
}
