package cluster_test

import (
	"context"
	"math"
	"testing"

	"verticadr"
	"verticadr/internal/cluster"
	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/server"
)

// TestClientResultsCrossExactly: what the public client hands back is, cell
// for cell and bit for bit, what an in-process session answers — for the
// values a JSON result could not carry at all (NaN, ±Inf: the fetch failed
// with "unsupported value") or not exactly (NaN payloads, a NUL byte, bytes
// that are not UTF-8). Against one plain server and against the three-node
// cluster, rows loaded through the client's own COPY. INTEGERs are compared
// as the float64 the client documents.
func TestClientResultsCrossExactly(t *testing.T) {
	ctx := context.Background()
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString}, {Name: "flag", Type: colstore.TypeBool},
	}
	const payloadA, payloadB = 0x7ff8deadbeef0001, 0xfff8000000000123
	rows := [][]any{
		{int64(0), math.Float64frombits(payloadA), "\x00", true},
		{int64(1), math.Float64frombits(payloadB), "", false},
		{int64(2), math.Inf(1), "a\x00b", true},
		{int64(3), math.Inf(-1), "", false},
		{int64(4), math.Copysign(0, -1), "plain", true},
		{int64(5), 0.1, "\xff\xfe not utf-8", false},
		{int64(1 << 53), math.SmallestNonzeroFloat64, "<&>", true},
		{int64(-7), math.MaxFloat64, "\"quoted\"\n", false},
	}

	// One plain server, the vdr-serve default; its own session is the
	// reference.
	plain, err := core.Start(core.Config{DBNodes: 2, DRWorkers: 1, InstancesPerWorker: 1, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	topo, err := cluster.Topology{Addrs: []string{"local"}, Shards: 2, Replicas: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(plain, server.Config{})
	tcp, err := server.Listen(srv, "127.0.0.1:0", server.WithExtension(cluster.NewPeer(srv, topo, 0)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })

	addrs, _ := cluster.StartTestCluster(t, 3, 3, 2)
	base := cluster.StartTestBaseline(t, 3)

	for name, c := range map[string]struct {
		addrs []string
		ref   *core.Session
		load  bool // the reference is a second copy and needs the rows too
	}{
		"single node": {[]string{tcp.Addr()}, plain, false},
		"three nodes": {addrs, base, true},
	} {
		cl, err := verticadr.Dial(ctx, verticadr.ClusterConfig{Addrs: c.addrs})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		const ddl = `CREATE TABLE v (id INTEGER, x FLOAT, s VARCHAR, flag BOOLEAN) SEGMENTED BY HASH(id)`
		if err := cl.Exec(ctx, ddl); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cl.Load(ctx, "v", rows); err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if c.load {
			if err := c.ref.ExecContext(ctx, ddl); err != nil {
				t.Fatal(err)
			}
			b := colstore.NewBatch(schema)
			for _, r := range rows {
				if err := b.AppendRow(r...); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.ref.Load("v", b); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Prepare(ctx, "from", `SELECT id, x, s FROM v WHERE id >= ? ORDER BY id`); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range []struct {
			sql  string
			run  func() (*verticadr.Rows, error)
			rows int
		}{
			{`SELECT id, x, s, flag FROM v ORDER BY id`, nil, len(rows)},
			{`SELECT x FROM v WHERE id = 0`, nil, 1},
			{`SELECT flag, count(*), max(id), min(s) FROM v GROUP BY flag`, nil, 2},
			{`SELECT s, x FROM v WHERE id < -100`, nil, 0},
			{`SELECT id, x, s FROM v WHERE id >= 2 ORDER BY id`, func() (*verticadr.Rows, error) { return cl.Execute(ctx, "from", int64(2)) }, 5},
		} {
			if q.run == nil {
				q.run = func() (*verticadr.Rows, error) { return cl.Query(ctx, q.sql) }
			}
			got, err := q.run()
			if err != nil {
				t.Fatalf("%s: %q through the client: %v", name, q.sql, err)
			}
			ref, err := c.ref.QueryContext(ctx, q.sql)
			if err != nil {
				t.Fatalf("%s: %q in process: %v", name, q.sql, err)
			}
			want := ref.Rows()
			if len(got.Rows) != q.rows || len(want) != q.rows || len(got.Cols) != len(ref.Schema()) {
				t.Fatalf("%s: %q: %d rows x %d columns through the client, %d x %d in process, want %d rows",
					name, q.sql, len(got.Rows), len(got.Cols), len(want), len(ref.Schema()), q.rows)
			}
			for j, col := range ref.Schema() {
				if got.Cols[j] != col.Name {
					t.Fatalf("%s: %q: column %d is %q, in process %q", name, q.sql, j, got.Cols[j], col.Name)
				}
			}
			for i := range want {
				for j, w := range want[i] {
					g := got.Rows[i][j]
					if n, ok := w.(int64); ok {
						w = float64(n)
					}
					if wf, ok := w.(float64); ok {
						gf, ok := g.(float64)
						if !ok || math.Float64bits(gf) != math.Float64bits(wf) {
							t.Fatalf("%s: %q row %d column %d: %#v (%x) through the client, %x in process",
								name, q.sql, i, j, g, math.Float64bits(gf), math.Float64bits(wf))
						}
					} else if g != w {
						t.Fatalf("%s: %q row %d column %d: %#v through the client, %#v in process", name, q.sql, i, j, g, w)
					}
				}
			}
		}
		// The payloads themselves, not just agreement: row 0 and row 1.
		got, err := cl.Query(ctx, `SELECT id, x FROM v WHERE id >= 0 AND id < 2 ORDER BY id`)
		if err != nil || len(got.Rows) != 2 {
			t.Fatalf("%s: payload rows: %v", name, err)
		}
		if a, b := math.Float64bits(got.Rows[0][1].(float64)), math.Float64bits(got.Rows[1][1].(float64)); a != payloadA || b != payloadB {
			t.Fatalf("%s: NaN payloads arrived as %x and %x", name, a, b)
		}
	}
}
