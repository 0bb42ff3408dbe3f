package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"verticadr/internal/server"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

func TestTopologyPlacement(t *testing.T) {
	topo, err := Topology{Addrs: []string{"a", "b", "c"}, Shards: 3, Replicas: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Ring placement: shard s on peers (s, s+1) mod 3, primary first.
	wantOwners := [][]int{{0, 1}, {1, 2}, {2, 0}}
	for s, want := range wantOwners {
		if got := topo.Owners(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Owners(%d) = %v, want %v", s, got, want)
		}
	}
	wantShards := [][]int{{0, 2}, {0, 1}, {1, 2}}
	for node, want := range wantShards {
		if got := topo.OwnedShards(node); !reflect.DeepEqual(got, want) {
			t.Fatalf("OwnedShards(%d) = %v, want %v", node, got, want)
		}
	}
	if !topo.Owns(0, 2) || topo.Owns(0, 1) {
		t.Fatal("Owns disagrees with Owners")
	}

	// Defaults: shards = peers, replicas = 2 capped to peer count.
	one, err := Topology{Addrs: []string{"a"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards != 1 || one.Replicas != 1 {
		t.Fatalf("single-peer defaults = %+v", one)
	}
	if _, err := (Topology{}).Normalize(); err == nil {
		t.Fatal("empty topology normalized")
	}
	if _, err := (Topology{Addrs: []string{"a"}, Replicas: 2}.Normalize()); err == nil {
		t.Fatal("replication factor above peer count normalized")
	}
}

// TestRoutedPartialsCrossExactly drives aggregate partials through a real
// peer → router hop and requires the merged result Float64bits-equal to the
// single-node session: VARCHAR keys with NUL bytes and the empty string, a
// BOOLEAN key, a FLOAT key with NaN, -0.0 and +0.0, sums reaching +Inf, -Inf
// and NaN, a payload-carrying NaN as FLOAT extreme, VARCHAR extremes and
// INTEGER extremes at both ends of int64. Table t spreads the rows round-robin
// so every group straddles shards; in table e every row hashes to one shard,
// so two shards answer with zero-row partials.
func TestRoutedPartialsCrossExactly(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	for name, seg := range map[string]string{"t": "ROUND ROBIN", "e": "HASH(b)"} {
		ddl := fmt.Sprintf(testDDL, name, seg)
		if err := base.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
		tc.exec(ddl)
	}
	const payloadBits = 0x7ff8deadbeef0001
	payload := math.Float64frombits(payloadBits)
	negZero := math.Copysign(0, -1)
	// Every NaN in y sits in the s = "\x00" group, which row 0 opens: NaN
	// neither replaces nor is replaced as an extreme, so MIN/MAX is only
	// associative when a group's NaN is its first value.
	rows := [][]any{
		// id, a, b, x, y, s, flag
		{int64(0), int64(math.MinInt64), int64(7), payload, payload, "\x00", true},
		{int64(1), int64(5), int64(7), negZero, math.MaxFloat64, "a", true},
		{int64(2), int64(-5), int64(7), 0.0, -math.MaxFloat64, "a\x00", true},
		{int64(3), int64(math.MaxInt64), int64(7), math.NaN(), payload, "\x00", true},
		{int64(4), int64(0), int64(7), 1.5, math.MaxFloat64, "a", true},
		{int64(5), int64(1), int64(7), negZero, -math.MaxFloat64, "a\x00", true},
		{int64(6), int64(2), int64(7), 0.0, math.Inf(1), "", true},
		{int64(7), int64(3), int64(7), 1.5, math.Inf(-1), "", true},
		{int64(8), int64(math.MaxInt64), int64(7), negZero, 0.25, "a", false},
		{int64(9), int64(math.MinInt64), int64(7), 0.0, -0.5, "", false},
		{int64(10), int64(4), int64(7), 1.5, 2.0, "a\x00", false},
		{int64(11), int64(6), int64(7), 0.0, negZero, "", false},
	}
	for _, name := range []string{"t", "e"} {
		loadBoth(t, base, tc, name, difftest.TableSchema(), rows)
	}

	query := func(sql string) *sqlexec.Result {
		t.Helper()
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatalf("%q on a single node: %v", sql, err)
		}
		got, err := tc.router(1).Query(ctx, sql)
		if err != nil {
			t.Fatalf("%q routed: %v", sql, err)
		}
		sameResult(t, sql, ref, got)
		return got
	}
	for _, table := range []string{"t", "e"} {
		for _, q := range []string{
			"SELECT flag, count(*), sum(y), avg(y), min(s), max(s), min(a), max(a) FROM %s GROUP BY flag",
			"SELECT s, flag, x, count(*), max(y), min(a) FROM %s GROUP BY s, flag, x",
			"SELECT count(*), sum(y), avg(y), min(y), max(y), min(s), max(s), min(a), max(a), min(flag) FROM %s",
			"SELECT s, count(*) FROM %s WHERE id < 0 GROUP BY s",
			"SELECT count(*), sum(y) FROM %s WHERE id < 0",
		} {
			query(fmt.Sprintf(q, table))
		}

		byS := query(fmt.Sprintf("SELECT s, count(*), sum(y), min(y), max(y), min(a), max(a) FROM %s GROUP BY s", table)).Rows()
		want := []struct {
			s          string
			n          int64
			sum        float64
			minA, maxA int64
		}{
			{"\x00", 2, payload, math.MinInt64, math.MaxInt64},
			{"a", 3, math.Inf(1), 0, math.MaxInt64},
			{"a\x00", 3, math.Inf(-1), -5, 4},
			{"", 4, math.NaN(), math.MinInt64, 6},
		}
		if len(byS) != len(want) {
			t.Fatalf("%s: %d groups by s, want %d: %q", table, len(byS), len(want), byS)
		}
		for _, row := range byS { // group order follows the placement; find each by key
			for _, w := range want {
				sum := row[2].(float64)
				if row[0] == w.s && (row[1] != w.n || row[5] != w.minA || row[6] != w.maxA ||
					(sum != w.sum && !(math.IsNaN(sum) && math.IsNaN(w.sum)))) {
					t.Fatalf("%s: group by s is %v, want %+v", table, row, w)
				}
			}
			if row[0] != "\x00" {
				continue
			}
			for _, c := range []int{2, 3, 4} { // sum, min and max of the all-payload group
				if bits := math.Float64bits(row[c].(float64)); bits != payloadBits {
					t.Fatalf("%s: NaN payload lost in column %d: %x", table, c, bits)
				}
			}
		}

		// The FLOAT key: every NaN is one group (shown as first seen), the two
		// zeros are two groups.
		byX := query(fmt.Sprintf("SELECT x, count(*), min(a), max(a) FROM %s GROUP BY x", table)).Rows()
		var keys []uint64
		for _, row := range byX {
			keys = append(keys, math.Float64bits(row[0].(float64)))
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []uint64{0, math.Float64bits(1.5), payloadBits, math.Float64bits(negZero)}) {
			t.Fatalf("%s: FLOAT keys %x", table, keys)
		}
	}
}

// TestPeerShardRowsCountEveryChunk: cluster_peer_shard_rows_total counts the
// rows of every chunk a peer ships — a routed aggregate's groups as much as a
// routed projection's rows.
func TestPeerShardRowsCountEveryChunk(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	tc.exec(fmt.Sprintf(testDDL, "t", "ROUND ROBIN"))
	var vals []string
	for i := 0; i < 12; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 0, 0, 0.5, 0.5, 'red', %v)", i, i%2 == 0))
	}
	tc.exec("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	for _, c := range []struct {
		sql  string
		want int64
	}{
		{"SELECT id FROM t WHERE id < 7", 7},
		{"SELECT flag, count(*) FROM t GROUP BY flag", 6}, // 2 groups on each of 3 shards
		{"SELECT count(*) FROM t WHERE id < 0", 0},        // no shard opens a group
	} {
		before := mPeerShardRows.Value()
		if _, err := tc.router(0).Query(context.Background(), c.sql); err != nil {
			t.Fatal(err)
		}
		if got := mPeerShardRows.Value() - before; got != c.want {
			t.Fatalf("%q: peers shipped %d rows, want %d", c.sql, got, c.want)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err   error
		retry bool
		conn  bool
	}{
		{verr.ErrNodeDown, true, true},
		{verr.ErrClosed, true, true},
		{verr.ErrOverloaded, true, false},
		{fmt.Errorf("wrap: %w", verr.ErrOverloaded), true, false},
		{verr.ErrCanceled, false, false},
		{fmt.Errorf("%w: %w", verr.ErrNodeDown, verr.ErrCanceled), false, true},
		{errors.New("syntax error"), false, false},
	}
	for i, c := range cases {
		if got := retryable(c.err); got != c.retry {
			t.Fatalf("case %d (%v): retryable = %v, want %v", i, c.err, got, c.retry)
		}
		if got := connFailure(c.err); got != c.conn {
			t.Fatalf("case %d (%v): connFailure = %v, want %v", i, c.err, got, c.conn)
		}
	}
}

// TestRouterFailoverOnReplicaDeath kills one peer of a replicated cluster
// and requires reads to keep answering from the survivors, the health view
// to record the death, and the prober to resurrect the peer when its
// listener returns. The reads enter through node 0, which holds shards 0 and
// 2 and reads them in process; the victim, node 1, is the first owner of
// shard 1, so every read tries it before shard 1's other replica.
func TestRouterFailoverOnReplicaDeath(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	ctx := context.Background()
	tc.exec(fmt.Sprintf(testDDL, "t", "HASH(id)"))
	tc.exec(`INSERT INTO t VALUES (1, 2, 3, 1.5, 2.5, 'red', true), (2, 3, 4, -0.5, 0.5, 'blue', false)`)

	if err := tc.nodes[1].tcp.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := tc.router(0).Query(ctx, `SELECT count(*) AS n FROM t`)
	if err != nil {
		t.Fatalf("read did not fail over: %v", err)
	}
	if n := res.Rows()[0][0].(int64); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
	if h := tc.router(0).Health(); h[1].Up {
		t.Fatal("dead peer still marked up")
	}

	tcp, err := server.Listen(tc.nodes[1].srv, tc.nodes[1].addr,
		server.WithFrontend(tc.nodes[1].router),
		server.WithExtension(NodeExtension(tc.nodes[1].peer, tc.nodes[1].router)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := tc.router(0).Health(); h[1].Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never restored the peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterPrepareExecute prepares in a node's server, which keeps the name:
// the node's router executes it there, and the peers need no prepared name,
// only the text and its arguments.
func TestRouterPrepareExecute(t *testing.T) {
	tc := startCluster(t, 2, 2, 1)
	ctx := context.Background()
	tc.exec(fmt.Sprintf(testDDL, "t", "HASH(id)"))
	tc.exec(`INSERT INTO t VALUES (1, 5, 0, 1.0, 0.0, 'red', true), (2, -5, 0, 2.0, 0.0, 'blue', false), (3, 9, 0, 3.0, 0.0, 'red', true)`)

	r, srv := tc.router(0), tc.nodes[0].srv
	if err := srv.Prepare("above", `SELECT id, a FROM t WHERE a > ? ORDER BY id`); err != nil {
		t.Fatal(err)
	}
	res, err := r.Execute(ctx, "above", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0].(int64) != 1 || rows[1][0].(int64) != 3 {
		t.Fatalf("execute rows = %v", rows)
	}
	if _, err := r.Execute(ctx, "missing"); err == nil {
		t.Fatal("execute of unknown statement succeeded")
	}
	if err := srv.Prepare("", `SELECT 1`); err == nil {
		t.Fatal("empty statement name prepared")
	}
}

// A routed PROFILE statement ships as the client wrote it, so each peer
// profiles its shard work; the routed answer is the statement's own rows and
// carries no profile (the router's merge is no operator pipeline).
func TestRoutedProfileAnswersLikeItsStatement(t *testing.T) {
	tc := startCluster(t, 2, 2, 1)
	ctx := context.Background()
	tc.exec(fmt.Sprintf(testDDL, "t", "HASH(id)"))
	tc.exec(`INSERT INTO t VALUES (1, 5, 0, 1.0, 0.0, 'red', true), (2, -5, 0, 2.0, 0.0, 'blue', false), (3, 9, 0, 3.0, 0.0, 'red', true)`)
	for _, sql := range []string{
		`SELECT id, a FROM t WHERE a > 0 ORDER BY id`,
		`SELECT s, count(*) AS n, sum(x) AS sx FROM t GROUP BY s ORDER BY s`,
	} {
		ref, err := tc.router(0).Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.router(1).Query(ctx, "PROFILE "+sql)
		if err != nil {
			t.Fatalf("PROFILE %s: %v", sql, err)
		}
		sameResult(t, "PROFILE "+sql, ref, got)
		if got.Profile != nil {
			t.Fatalf("PROFILE %s: a routed result carries a profile", sql)
		}
	}
}

// TestProbeHealth exercises the client-facing health probe helper against
// one live and one dead address.
func TestProbeHealth(t *testing.T) {
	tc := startCluster(t, 1, 1, 1)
	dead := freeAddrs(t, 1)[0]
	hs := ProbeHealth(context.Background(), []string{tc.nodes[0].addr, dead}, time.Second)
	if len(hs) != 2 {
		t.Fatalf("%d reports, want 2", len(hs))
	}
	if !hs[0].Up {
		t.Fatalf("live node reported down: %+v", hs[0])
	}
	if hs[1].Up {
		t.Fatalf("dead address reported up: %+v", hs[1])
	}
}

// TestDiscoverHealth dials a single node of a 3-node cluster and must get
// a health report for all three, with per-node shard ownership, because
// the contacted peer reports the full address list. A dead seed address
// falls through to the next one.
func TestDiscoverHealth(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	ctx := context.Background()
	dead := freeAddrs(t, 1)[0]
	for _, seeds := range [][]string{
		{tc.nodes[1].addr},
		{dead, tc.nodes[0].addr},
	} {
		hs := DiscoverHealth(ctx, seeds, time.Second)
		if len(hs) != 3 {
			t.Fatalf("seeds %v: %d reports, want 3", seeds, len(hs))
		}
		for i, h := range hs {
			if !h.Up || h.Addr != tc.nodes[i].addr {
				t.Fatalf("seeds %v: node %d report %+v", seeds, i, h)
			}
			if want := tc.topo.OwnedShards(i); !reflect.DeepEqual(h.Shards, want) {
				t.Fatalf("seeds %v: node %d shards %v, want %v", seeds, i, h.Shards, want)
			}
		}
	}
	// Nothing reachable: fall back to probing the seeds themselves.
	hs := DiscoverHealth(ctx, []string{dead}, 200*time.Millisecond)
	if len(hs) != 1 || hs[0].Up {
		t.Fatalf("dead-only discovery = %+v", hs)
	}
}

// TestSelectErrorsLocalAndRouted pins the error a bad SELECT surfaces, on a
// single node and routed through peers (row, aggregate-partial and gather
// paths): the message class and, where a sentinel exists, errors.Is identity
// across the wire. Every statement fails in plan.Build or in the plan walker
// — there is no second executor to re-derive a "richer" error.
func TestSelectErrorsLocalAndRouted(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	for _, table := range []string{"t", "e"} { // e stays empty
		ddl := fmt.Sprintf(testDDL, table, "HASH(id)")
		if err := base.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
		tc.exec(ddl)
	}
	ins := `INSERT INTO t VALUES (1, 2, 3, 1.5, -2.5, 'red', true), (2, -4, 5, 0.5, 7.5, 'blue', false), (3, 0, 1, 2.5, 0.5, 'red', true)`
	if err := base.ExecContext(ctx, ins); err != nil {
		t.Fatal(err)
	}
	tc.exec(ins)

	cases := []struct {
		name, sql string
		is        error  // nil: no sentinel, message class only
		contains  string // substring of the message on both paths
	}{
		{"missing table", `SELECT id FROM nosuch`, verr.ErrTableNotFound, "nosuch"},
		{"missing table, aggregate", `SELECT count(*) FROM nosuch`, verr.ErrTableNotFound, "nosuch"},
		{"missing table, join", `SELECT t.id FROM t JOIN nosuch ON t.id = nosuch.id`, verr.ErrTableNotFound, "nosuch"},
		{"unknown column in SELECT", `SELECT nosuch FROM t`, verr.ErrUnknownColumn, "nosuch"},
		{"unknown column in WHERE", `SELECT id FROM t WHERE nosuch = 1`, verr.ErrUnknownColumn, "nosuch"},
		{"unknown column in aggregate WHERE", `SELECT count(*) FROM t WHERE nosuch = 1`, verr.ErrUnknownColumn, "nosuch"},
		{"unknown column in GROUP BY", `SELECT nosuch, count(*) FROM t GROUP BY nosuch`, verr.ErrUnknownColumn, "nosuch"},
		{"unknown column in aggregate argument", `SELECT min(nosuch) FROM t`, verr.ErrUnknownColumn, "nosuch"},
		{"unknown column in ORDER BY", `SELECT id FROM t ORDER BY nosuch`, nil, `ORDER BY column "nosuch" not in output`},
		{"unbound placeholder", `SELECT id FROM t WHERE id > ?`, nil, "unbound placeholder(s) (prepare and execute with arguments)"},
		{"unbound placeholder, aggregate", `SELECT count(*) FROM t WHERE id > ?`, nil, "unbound placeholder(s) (prepare and execute with arguments)"},
		{"star with aggregation", `SELECT *, count(*) FROM t`, nil, "SELECT * not allowed with aggregation"},
		{"non-boolean WHERE", `SELECT id FROM t WHERE id`, nil, "WHERE clause is not boolean"},
		{"non-boolean WHERE, aggregate", `SELECT count(*) FROM t WHERE id + 1`, nil, "WHERE clause is not boolean"},
		// A literal that does not compare with its column fails whatever the
		// table holds: rows, no row past the other conjunct, no row at all.
		{"uncomparable literal", `SELECT count(*) FROM t WHERE s > 3`, nil, "colstore: cannot compare string with int64"},
		{"uncomparable literal, pruned", `SELECT count(*) FROM t WHERE id > 100 AND s > 3`, nil, "colstore: cannot compare string with int64"},
		{"uncomparable literal, empty", `SELECT count(*) FROM e WHERE s > 3`, nil, "colstore: cannot compare string with int64"},
		{"uncomparable literal, projection", `SELECT id FROM t WHERE id > 100 AND flag = 1`, nil, "colstore: cannot compare bool with int64"},
		{"uncomparable literal, empty projection", `SELECT id FROM e WHERE x = 'red'`, nil, "colstore: cannot compare float64 with string"},
		// A function argument fails before any instance runs — one would fail
		// on the model nobody deployed — whatever the table holds.
		{"unknown column in UDTF argument", `SELECT GlmPredict(x, nosuch USING PARAMETERS model='absent') OVER (PARTITION BEST) FROM t`, verr.ErrUnknownColumn, "nosuch"},
		{"unknown column in UDTF argument, empty", `SELECT GlmPredict(x, nosuch USING PARAMETERS model='absent') OVER (PARTITION BEST) FROM e`, verr.ErrUnknownColumn, "nosuch"},
		{"UDTF argument that cannot evaluate", `SELECT GlmPredict(x, ABS(s) USING PARAMETERS model='absent') OVER (PARTITION BEST) FROM t`, nil, "expected numeric column"},
		{"UDTF argument that cannot evaluate, empty", `SELECT GlmPredict(x, ABS(s) USING PARAMETERS model='absent') OVER (PARTITION BEST) FROM e`, nil, "expected numeric column"},
	}
	for _, c := range cases {
		_, localErr := base.QueryContext(ctx, c.sql)
		_, routedErr := tc.router(0).Query(ctx, c.sql)
		for path, err := range map[string]error{"local": localErr, "routed": routedErr} {
			if err == nil {
				t.Fatalf("%s (%s): %q succeeded", c.name, path, c.sql)
			}
			if c.is != nil && !errors.Is(err, c.is) {
				t.Fatalf("%s (%s): error %q is not %v", c.name, path, err, c.is)
			}
			if !strings.Contains(err.Error(), c.contains) {
				t.Fatalf("%s (%s): error %q lacks %q", c.name, path, err, c.contains)
			}
		}
	}

	// Success leg: table-qualified columns. The router merges against the
	// normalized statement the peers ran, so what one node accepts the
	// cluster accepts, with the same bits.
	for _, sql := range []string{
		`SELECT t.flag, count(*) FROM t GROUP BY t.flag`,
		`SELECT q.s, sum(q.x) AS sx, min(q.a) FROM t q WHERE q.id > 0 GROUP BY q.s ORDER BY q.s`,
		`SELECT max(t.x), avg(t.y) FROM t WHERE t.flag = true`,
		`SELECT t.id, t.x FROM t WHERE t.id > 1 ORDER BY t.id DESC`,
		`SELECT q.id, q.s FROM t q ORDER BY q.s, q.id LIMIT 2`,
	} {
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatalf("local %q: %v", sql, err)
		}
		got, err := tc.router(1).Query(ctx, sql)
		if err != nil {
			t.Fatalf("routed %q: %v", sql, err)
		}
		sameResult(t, sql, ref, got)
	}
	// A qualifier that names no table in scope fails the same way on both.
	const stray = `SELECT u.id FROM t`
	_, localErr := base.QueryContext(ctx, stray)
	_, routedErr := tc.router(0).Query(ctx, stray)
	if localErr == nil || routedErr == nil || localErr.Error() != routedErr.Error() {
		t.Fatalf("%q: local error %v, routed error %v", stray, localErr, routedErr)
	}
}

// opScanAttrs runs one aggregate through a peer's cl.agg handler for every shard
// under a trace and returns the summed numeric attributes of the op:scan
// spans the shard executions recorded.
func opScanAttrs(t *testing.T, tc *testCluster, sql string) map[string]int64 {
	t.Helper()
	log := telemetry.NewSpanLog(nil)
	root := log.StartSpan("test")
	ctx := telemetry.ContextWithSpan(context.Background(), root)
	for shard := 0; shard < tc.topo.Shards; shard++ {
		peer := tc.nodes[tc.topo.Owners(shard)[0]].peer
		if _, _, _, err := peer.serveShards(ctx, opAgg, shardRequest{SQL: sql, Shards: []int{shard}}); err != nil {
			t.Fatalf("cl.agg shard %d %q: %v", shard, sql, err)
		}
	}
	root.End()
	sums := map[string]int64{}
	for _, sp := range log.Export() {
		if !sp.Ended {
			t.Fatalf("%q: peer-side span %s was never ended", sql, sp.Name)
		}
		if sp.Name != "op:scan" {
			continue
		}
		sums["scans"]++
		for _, a := range sp.Attrs {
			if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
				sums[a.Key] += v
			}
		}
	}
	return sums
}

// TestPeersExecuteTheShardPlan pins that the tree a routed EXPLAIN prints is
// the tree peers run for a routed aggregate: an index probe decodes only the
// probed block, and a WHERE-less aggregate over run-encoded columns folds
// encoded runs — not a full decode-first scan with one pushed conjunct.
func TestPeersExecuteTheShardPlan(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	ddl := fmt.Sprintf(testDDL, "t", "ROUND ROBIN")
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	tc.exec(ddl)
	// 512 rows = 8 sealed 64-row blocks per shard. a is a unique key
	// scattered over every block (zone maps cannot prune it); s holds one
	// value per block and y is constant (both RLE).
	const n = 3 * 512
	rows := make([][]any, n)
	for i := range rows {
		j := i / 3 // the row's position within its shard
		rows[i] = []any{int64(i), int64(i*7919) % n, int64(i % 5), float64(i%8) / 4, 0.5,
			[]string{"red", "blue", "green"}[(j/64)%3], i%2 == 0}
	}
	loadBoth(t, base, tc, "t", difftest.TableSchema(), rows)
	const idx = `CREATE INDEX idx_a ON t (a)`
	if err := base.ExecContext(ctx, idx); err != nil {
		t.Fatal(err)
	}
	tc.exec(idx)

	probe := `SELECT s, count(*) FROM t WHERE a = 7 GROUP BY s`
	exp, err := tc.router(1).Query(ctx, "EXPLAIN "+probe)
	if err != nil {
		t.Fatal(err)
	}
	if text := fmt.Sprint(exp.Rows()); !strings.Contains(text, "IndexScan on t [index(a)") {
		t.Fatalf("routed EXPLAIN does not probe the index:\n%s", text)
	}
	if got := opScanAttrs(t, tc, probe); got["scans"] != 3 || got["blocks"] != 1 || got["rows"] != 1 {
		t.Fatalf("index probe through cl.agg: op:scan totals %v, want 3 scans decoding 1 block for 1 row", got)
	}

	fold := `SELECT s, count(*), sum(y) FROM t GROUP BY s`
	exp, err = tc.router(2).Query(ctx, "EXPLAIN "+fold)
	if err != nil {
		t.Fatal(err)
	}
	if text := fmt.Sprint(exp.Rows()); !strings.Contains(text, "run-aware") {
		t.Fatalf("routed EXPLAIN does not plan the run-aware aggregate:\n%s", text)
	}
	if got := opScanAttrs(t, tc, fold); got["blocks"] != 24 || got["blocks_compressed"] != 24 || got["rows"] != n {
		t.Fatalf("run-aware aggregate through cl.agg: op:scan totals %v, want 24 blocks all folded compressed, %d rows", got, n)
	}

	for _, sql := range []string{probe, fold} {
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.router(0).Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, sql, ref, got)
	}
}
