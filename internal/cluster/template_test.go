package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"verticadr/internal/algos"
	"verticadr/internal/core"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/telemetry"
	"verticadr/internal/wire"
)

// A prepared single-table read reaches the peers as the text the client
// prepared and its arguments: every execution lands on that one fingerprint
// in the initiator's statement statistics, once, and in no peer's; all but a
// node's first lookup of a template resolve from its plan cache — the
// initiator's own lookup among them, one per execution — and the answers are
// what one server answers — bit for bit, a whole float argument binding as a
// float and a string argument with bytes that are not UTF-8 as those bytes.
func TestPreparedReadsShipTheTemplate(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	tc.exec(ddl)
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 96)
	for i := range rows {
		s := []string{"red", "b\xff", ""}[i%3]
		rows[i] = []any{int64(i), int64(i % 7), int64(i % 3), float64(i) / 2, float64(i) * 1.5, s, i%2 == 0}
	}
	loadBoth(t, base, tc, "t", difftest.TableSchema(), rows)
	local := server.New(base, server.Config{})

	stmts := []struct {
		sql  string
		args [][]any
	}{
		{`SELECT id, x FROM t WHERE a = ? ORDER BY id`, [][]any{{int64(3)}, {int64(0)}, {int64(6)}}},
		{`SELECT id, ? AS c, x + ? AS y FROM t WHERE id < 8 ORDER BY id`, [][]any{{float64(2), int64(1)}, {math.Copysign(0, -1), 0.25}}},
		{`SELECT count(*) AS n, sum(x) AS sx FROM t WHERE s = ?`, [][]any{{"b\xff"}, {""}, {"none"}}},
		{`SELECT id FROM t WHERE flag = ? AND x > ? ORDER BY id LIMIT 5`, [][]any{{true, float64(3)}, {false, int64(40)}, {true, 1e300}}},
	}
	r, srv := tc.router(0), tc.nodes[0].srv
	texts := map[string]int64{} // client text -> executions
	hits := telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "hit"))
	misses := telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "miss"))
	var dh, dm int64 // the routed executions' lookups, not the reference's
	reads, executions := 0, 0
	for i, st := range stmts {
		name := fmt.Sprintf("s%d", i)
		if err := srv.Prepare(name, st.sql); err != nil {
			t.Fatal(err)
		}
		if err := local.Prepare(name, st.sql); err != nil {
			t.Fatal(err)
		}
		for _, args := range st.args {
			hits0, misses0 := hits.Value(), misses.Value()
			got, err := r.Execute(ctx, name, args...)
			if err != nil {
				t.Fatalf("%q %v: %v", st.sql, args, err)
			}
			dh, dm = dh+hits.Value()-hits0, dm+misses.Value()-misses0
			ref, err := local.Execute(ctx, name, args...)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%q %v", st.sql, args), ref, got)
			texts[st.sql]++
			reads += tc.topo.Shards
			executions++
		}
	}
	for i, n := range tc.nodes[1:] {
		if snaps := n.srv.Statements().Snapshot(); len(snaps) != 0 {
			t.Fatalf("peer %d recorded shard reads as statements: %+v", i+1, snaps)
		}
	}
	calls := map[string]int64{}
	for _, sn := range srv.Statements().Snapshot() {
		if _, ok := texts[sn.SQL]; !ok {
			t.Fatalf("the initiator recorded %q, not a client's text", sn.SQL)
		}
		if sn.Errors != 0 || sn.P50Secs <= 0 {
			t.Fatalf("%q: %d errors, p50 %v", sn.SQL, sn.Errors, sn.P50Secs)
		}
		calls[sn.SQL] += sn.Calls
	}
	for text, want := range texts {
		if calls[text] != want {
			t.Fatalf("%q: %d executions recorded, want %d", text, calls[text], want)
		}
	}
	if dh+dm != int64(reads+executions) || dm > int64(len(tc.nodes)*len(stmts)) {
		t.Fatalf("%d shard reads and %d router lookups: %d plan-cache hits, %d misses", reads, executions, dh, dm)
	}
}

// Statements whose rendering would move their placeholders — a USING
// PARAMETERS list renders sorted by key, so user=?, model=? swaps — and
// joins, whose build sides the router reads itself, still reach the peers
// as the client's text and arguments: each execution answers what one
// server answers, bit for bit, and the node that initiated it records it
// under the text the client prepared, once.
func TestPreparedStatementsShipTheClientText(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	tc.exec(ddl)
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	fdb, err := difftest.NewGen(0x5eed).Table(240)
	if err != nil {
		t.Fatal(err)
	}
	loadBoth(t, base, tc, "t", difftest.TableSchema(), fdb.SrcRows)
	joinFixture(t, tc, base, 600, 40)
	model := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{0.25, 1.5, -2.25}, Converged: true}
	for _, s := range []*core.Session{base, tc.nodes[0].sess, tc.nodes[1].sess, tc.nodes[2].sess} {
		if err := s.DeployModel("m", "alice", "", model); err != nil {
			t.Fatal(err)
		}
	}
	local := server.New(base, server.Config{})

	stmts := []struct {
		sql  string
		args [][]any
	}{
		{`SELECT GlmPredict(x, y USING PARAMETERS user=?, model=?) OVER (PARTITION BEST) FROM t`, [][]any{{"alice", "m"}, {"alice", "m"}}},
		{`SELECT d.grp, count(*) AS n, sum(events.x0) AS s FROM events JOIN dim d ON events.dim_id = d.id WHERE d.grp < ? AND events.x0 > ? GROUP BY d.grp ORDER BY d.grp`,
			[][]any{{int64(5), 1.5}, {int64(3), float64(0)}}},
	}
	// Each node's client prepares every statement, and the executions rotate
	// over the nodes' routers: a router reads its own node's shards in
	// process and only the rest over the wire, so one initiator alone would
	// leave a node without a read.
	var clients []*server.Client
	for _, n := range tc.nodes {
		c, err := server.DialTimeout(n.addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	initiator := 0
	for i, st := range stmts {
		want := make([]int64, len(tc.nodes))
		name := fmt.Sprintf("s%d", i)
		for _, c := range clients {
			if err := c.Prepare(ctx, name, st.sql); err != nil {
				t.Fatal(err)
			}
		}
		if err := local.Prepare(name, st.sql); err != nil {
			t.Fatal(err)
		}
		for _, args := range st.args {
			ref, err := local.Execute(ctx, name, args...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.router(initiator).Execute(ctx, name, args...)
			want[initiator%len(tc.nodes)]++
			initiator++
			if err != nil {
				t.Fatalf("%q %v: %v", st.sql, args, err)
			}
			sameResult(t, fmt.Sprintf("%q %v", st.sql, args), ref, got)
		}
		calls := make([]int64, len(tc.nodes))
		for i, n := range tc.nodes {
			for _, sn := range n.srv.Statements().Snapshot() {
				if sn.SQL == st.sql {
					calls[i] += sn.Calls
				}
			}
		}
		if !slices.Equal(calls, want) {
			t.Fatalf("%q: executions recorded per node %v, initiated %v", st.sql, calls, want)
		}
	}
}

// A router that fronts no node has no server to keep statements in: it
// refuses to execute one, and still routes one-shot statements.
func TestRouterWithoutNodeRefusesPrepare(t *testing.T) {
	tc := startCluster(t, 2, 2, 1)
	tc.exec(fmt.Sprintf(testDDL, "t", "HASH(id)"))
	r, err := NewRouter(Config{Addrs: tc.topo.Addrs, Shards: tc.topo.Shards, Replicas: tc.topo.Replicas, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ctx := context.Background()
	if _, err := r.Execute(ctx, "p", int64(1)); err == nil || !strings.Contains(err.Error(), "fronts no node") {
		t.Fatalf("execute on a router without a node: err = %v", err)
	}
	if _, err := r.Query(ctx, `SELECT count(*) AS n FROM t`); err != nil {
		t.Fatalf("one-shot query on a router without a node: %v", err)
	}
}

// shardCapture is a peer that only records the shard requests it reads.
type shardCapture struct{ got []shardRequest }

func (c *shardCapture) ServeExt(_ context.Context, wreq *wire.Request, bodies [][]byte) (server.ExtReply, error) {
	req, err := readShardRequest(wreq, bodies)
	if err != nil {
		return server.ExtReply{}, err
	}
	req.SQL = strings.Clone(req.SQL) // the header aliases the read buffer
	for i, a := range req.Args {
		if s, ok := a.(string); ok {
			req.Args[i] = strings.Clone(s)
		}
	}
	c.got = append(c.got, req)
	return server.ExtReply{Ext: (&shardReply{}).appendTo(nil)}, nil
}

// roundTrip makes call on c: its request sent, then its reply read.
func roundTrip(ctx context.Context, call rpc, c *wire.Client) error {
	if err := call.send(ctx, c); err != nil {
		return err
	}
	return call.wait(c)
}

// A shard read's arguments reach the peer exactly as the router holds them:
// an int as the int64 it is, a float's bits — NaN payload and sign of zero
// included — and a string's bytes. A router never sends an argument the
// frame header cannot carry: the call fails before the peer sees it.
func TestShardArgsCrossExactly(t *testing.T) {
	sess := startBaseline(t, 1)
	peer := &shardCapture{}
	tcp, err := server.Listen(server.New(sess, server.Config{}), "127.0.0.1:0", server.WithExtension(peer))
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	c, err := wire.Dial(tcp.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	nan := math.Float64frombits(0x7ff8deadbeef0001)
	in := []any{int(-7), int64(math.MinInt64), int64(math.MaxInt64), float64(2), nan, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), "a\x00\xff", "", true, false}
	const sql = `SELECT id FROM t WHERE a = ?`
	call := shardRequest{SQL: sql, Args: in, Shards: []int{0, 2}}.rpc(opSelect, &shardReply{}, nil)
	if err := roundTrip(ctx, call, c); err != nil {
		t.Fatal(err)
	}
	if len(peer.got) != 1 {
		t.Fatalf("the peer read %d requests, want 1", len(peer.got))
	}
	got := peer.got[0]
	if got.SQL != sql || fmt.Sprint(got.Shards) != "[0 2]" || len(got.Args) != len(in) {
		t.Fatalf("the peer read %q over shards %v with %d arguments", got.SQL, got.Shards, len(got.Args))
	}
	for i, v := range in {
		want := v
		if n, ok := v.(int); ok {
			want = int64(n)
		}
		if w, ok := want.(float64); ok {
			if g, ok := got.Args[i].(float64); !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("argument %d: %#v came back as %#v", i, v, got.Args[i])
			}
		} else if got.Args[i] != want {
			t.Fatalf("argument %d: %#v came back as %#v", i, v, got.Args[i])
		}
	}

	for _, bad := range []any{uint8(1), nil} {
		call := shardRequest{SQL: sql, Args: []any{int64(1), bad}, Shards: []int{0}}.rpc(opSelect, &shardReply{}, nil)
		if err := roundTrip(ctx, call, c); err == nil || !strings.Contains(err.Error(), "argument 1") {
			t.Fatalf("a %#v argument: err = %v", bad, err)
		}
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("the connection after a refused call: %v", err)
	}
	if len(peer.got) != 1 {
		t.Fatalf("the peer read %d requests, want 1", len(peer.got))
	}
}

// TestExecuteArgsCrossExactly (internal/server) through a cluster node: a
// client's execute reaches the node's router in the frame header's typed
// arguments, the router ships the prepared text and the same arguments to
// every peer, and each answers what one server's Server.Execute answers, bit for
// bit through Rows' boxing.
func TestExecuteArgsCrossExactly(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	tc.exec(ddl)
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 12)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 7), int64(i % 3), float64(i) / 2, float64(i) * 1.5, "s", i%2 == 0}
	}
	loadBoth(t, base, tc, "t", difftest.TableSchema(), rows)
	local := server.New(base, server.Config{})
	c, err := server.DialTimeout(tc.nodes[0].addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmts := map[string]string{
		"num": `SELECT id, ? AS v, x * ? AS y, ? * 4611686018427387904 AS w FROM t WHERE id < 3 ORDER BY id`,
		"any": `SELECT id, ? AS v FROM t WHERE id < 3 ORDER BY id`,
	}
	for name, sql := range stmts {
		if err := c.Prepare(ctx, name, sql); err != nil {
			t.Fatal(err)
		}
		if err := local.Prepare(name, sql); err != nil {
			t.Fatal(err)
		}
	}
	nan := math.Float64frombits(0x7ff8deadbeef0001)
	for _, a := range []any{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 2.0,
		int64(math.MinInt64), int64(math.MaxInt64), "a\x00\xff", true, false} {
		runs := map[string][]any{"any": {a}}
		switch a.(type) {
		case int64, float64:
			runs["num"] = []any{a, a, a}
		}
		for name, args := range runs {
			ref, err := local.Execute(ctx, name, args...)
			if err != nil {
				t.Fatalf("%s %#v in process: %v", name, a, err)
			}
			got, err := c.Execute(ctx, name, args...)
			if err != nil {
				t.Fatalf("%s %#v through node 0: %v", name, a, err)
			}
			want := ref.Rows()
			if len(got.Rows) != len(want) || len(want) != 3 {
				t.Fatalf("%s %#v: %d rows through node 0, %d in process", name, a, len(got.Rows), len(want))
			}
			for i, row := range want {
				for j, v := range row {
					if n, ok := v.(int64); ok {
						v = float64(n) // Rows box an INTEGER as float64
					}
					if !bitIdentical(got.Rows[i][j], v) {
						t.Fatalf("%s %#v: row %d column %d is %#v through node 0, %#v in process", name, a, i, j, got.Rows[i][j], v)
					}
				}
			}
		}
	}
}
