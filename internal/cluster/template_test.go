package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"verticadr/internal/plan"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/wire"
)

// A prepared single-table read reaches the peers as its template and its
// arguments: every execution lands on the template's one fingerprint in the
// peers' statement statistics, all but a peer's first execution of a
// template resolve from its plan cache, and the answers are what one server
// answers — bit for bit, a whole float argument binding as a float and a
// string argument with bytes that are not UTF-8 as those bytes.
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
	r := tc.router(0)
	texts := map[string]int64{} // template -> shard reads
	hits := telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "hit"))
	misses := telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "miss"))
	var dh, dm int64 // the routed executions' lookups, not the reference's
	reads := 0
	for i, st := range stmts {
		name := fmt.Sprintf("s%d", i)
		if err := r.Prepare(name, st.sql); err != nil {
			t.Fatal(err)
		}
		if err := local.Prepare(name, st.sql); err != nil {
			t.Fatal(err)
		}
		ps := r.prepared[name]
		if ps.norm == nil {
			t.Fatalf("%q is not sent as a template", st.sql)
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
			texts[ps.text] += int64(tc.topo.Shards)
			reads += tc.topo.Shards
		}
	}
	calls := map[string]int64{}
	for _, n := range tc.nodes {
		for _, sn := range n.srv.Statements().Snapshot() {
			if _, ok := texts[sn.SQL]; !ok {
				t.Fatalf("a peer recorded %q, not a template", sn.SQL)
			}
			calls[sn.SQL] += sn.Calls
		}
	}
	for text, want := range texts {
		if calls[text] != want {
			t.Fatalf("%q: %d shard reads recorded, want %d", text, calls[text], want)
		}
	}
	if dh+dm != int64(reads) || dm > int64(len(tc.nodes)*len(stmts)) {
		t.Fatalf("%d shard reads: %d plan-cache hits, %d misses", reads, dh, dm)
	}
}

// A template whose text would bind its placeholders in another order — a
// USING PARAMETERS list renders sorted by name — is not sent as one.
func TestTemplateKeepsPlaceholderOrder(t *testing.T) {
	for sql, want := range map[string]bool{
		`SELECT id FROM t WHERE a = ? AND x > ?`:                                                           true,
		`SELECT GlmPredict(x, y USING PARAMETERS zz=?, model=?) OVER (PARTITION BEST) FROM t WHERE id > ?`: false,
		`SELECT GlmPredict(x, y USING PARAMETERS model=?, zz=?) OVER (PARTITION BEST) FROM t WHERE id > ?`: true,
	} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := plan.Normalize(sel)
		if err != nil {
			t.Fatal(err)
		}
		if got := sendsAsTemplate(norm); got != want {
			t.Fatalf("%q: sent as a template %v, want %v", sql, got, want)
		}
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
	return server.ExtReply{Payload: shardReply{}}, nil
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
	if err := call.on(ctx, c); err != nil {
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
		if err := call.on(ctx, c); err == nil || !strings.Contains(err.Error(), "argument 1") {
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
// arguments, the router ships the template and the same arguments to every
// peer, and each answers what one server's Server.Execute answers, bit for
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
