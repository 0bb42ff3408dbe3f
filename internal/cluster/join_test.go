package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/plan"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
)

// TestJoinNormalizedRoundTrips: the router renders what it normalized onto
// the wire — a broadcast build side's read (buildSQL) names the joined
// table's columns and conjuncts as the normalized join holds them — so a
// normalized join's text must parse back to the statement the router merges
// by and normalize to itself, and each build read's text must parse back to
// itself.
func TestJoinNormalizedRoundTrips(t *testing.T) {
	def := func(name string) (*catalog.TableDef, error) {
		return &catalog.TableDef{Name: name, Schema: difftest.TableSchema()}, nil
	}
	gen := difftest.NewGen(0x70ad)
	stmts := []string{
		`SELECT t.id, r.a FROM t JOIN t r ON t.id = r.id ORDER BY t.id LIMIT 40`,
		`SELECT * FROM t JOIN u ON t.id = u.id JOIN v ON u.a = v.a WHERE v.b > 0 AND t.s = 'it''s' AND NOT u.flag`,
		`SELECT "select".s, count(*) AS "order" FROM t "select" JOIN u ON "select".x = u.y GROUP BY "select".s ORDER BY "order" DESC`,
	}
	for i := 0; i < 300; i++ {
		stmts = append(stmts, gen.JoinQuery(90, 70).String())
	}
	for _, sql := range stmts {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		norm, inputs, err := plan.NormalizeJoin(sel, def)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for _, in := range inputs[1:] {
			build := buildSQL(in)
			if back, err := sqlparse.ParseSelect(build); err != nil || back.String() != build {
				t.Fatalf("%q reads a build side with %q, which parses to %v (%v)", sql, build, back, err)
			}
		}
		shipped := norm.String()
		back, err := sqlparse.ParseSelect(shipped)
		if err != nil {
			t.Fatalf("%q ships as %q, which does not parse: %v", sql, shipped, err)
		}
		if back.String() != shipped {
			t.Fatalf("%q ships as %q, which parses to %q", sql, shipped, back.String())
		}
		again, _, err := plan.NormalizeJoin(back, def)
		if err != nil {
			t.Fatalf("%q ships as %q, which does not normalize: %v", sql, shipped, err)
		}
		if again.String() != shipped {
			t.Fatalf("%q ships as %q, which the peer normalizes to %q", sql, shipped, again.String())
		}
	}
}

// joinFixture loads the benchmark's join shape at test size into a cluster
// and a baseline: events (probe side, segmented off the join key) and dim.
const joinFixtureSQL = `SELECT d.grp, count(*) AS n, sum(events.x0) AS s FROM events JOIN dim d ON events.dim_id = d.id GROUP BY d.grp ORDER BY d.grp`

func joinFixture(t *testing.T, tc *testCluster, base *core.Session, events, dim int) {
	t.Helper()
	ctx := context.Background()
	for _, ddl := range []string{
		`CREATE TABLE events (id INTEGER, dim_id INTEGER, x0 FLOAT) SEGMENTED BY HASH(id)`,
		`CREATE TABLE dim (id INTEGER, grp INTEGER, w FLOAT) SEGMENTED BY HASH(id)`,
	} {
		if err := base.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
		tc.exec(ddl)
	}
	evRows := make([][]any, events)
	for i := range evRows {
		evRows[i] = []any{int64(i), int64(i*31) % int64(dim), float64(i%17) / 2}
	}
	dimRows := make([][]any, dim)
	for i := range dimRows {
		dimRows[i] = []any{int64(i), int64(i % 8), float64(i) / 4}
	}
	loadBoth(t, base, tc, "events", colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "dim_id", Type: colstore.TypeInt64}, {Name: "x0", Type: colstore.TypeFloat64}}, evRows)
	loadBoth(t, base, tc, "dim", colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "grp", Type: colstore.TypeInt64}, {Name: "w", Type: colstore.TypeFloat64}}, dimRows)
}

// TestJoinShipsBuildRowsAndPartialsOnly: over one benchmark-shaped join the
// peers ship the build side's rows once and one partial group per group per
// shard — not one row of the probe table reaches the router — and the trace
// shows the two rounds as the children of router.join: one shard read per
// shard in each, a cl.select span under router.join.build and a cl.agg span
// under router.join, whether the router's node served it in process or a
// peer over the wire (its span then hangs under the call's client and server
// spans, in the same trace).
func TestJoinShipsBuildRowsAndPartialsOnly(t *testing.T) {
	const events, dim, groups = 3000, 100, 8
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	joinFixture(t, tc, base, events, dim)

	log := telemetry.Default().Spans() // where the peers' spans go too
	root := log.StartSpan("test")
	ctx := telemetry.ContextWithSpan(context.Background(), root)
	shipped, broadcasts, gathers := mPeerShardRows.Value(), mJoins(strategyBroadcast).Value(), mRouterRouted("gather").Value()
	got, err := tc.router(0).Query(ctx, joinFixtureSQL)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if n := mPeerShardRows.Value() - shipped; n != dim+3*groups {
		t.Fatalf("peers shipped %d rows for one join, want %d build rows + %d partial groups", n, dim, 3*groups)
	}
	if mJoins(strategyBroadcast).Value()-broadcasts != 1 || mRouterRouted("gather").Value()-gathers != 1 {
		t.Fatal("one broadcast join must count once in cluster_join_total and once under the benchmark's gather label")
	}
	ref, err := base.QueryContext(context.Background(), joinFixtureSQL)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, joinFixtureSQL, ref, got)

	var spans []telemetry.SpanRecord
	byID := map[int64]telemetry.SpanRecord{}
	for _, sp := range log.Export() {
		if sp.Trace == telemetry.FormatID(root.TraceID()) {
			spans = append(spans, sp)
			byID[sp.ID] = sp
		}
	}
	// routerParent is the nearest router.* or test span above sp: a shard
	// read's span sits under its client and server spans when it crossed the
	// wire, directly under the router's when it did not.
	routerParent := func(sp telemetry.SpanRecord) string {
		for p, ok := byID[sp.Parent]; ok; p, ok = byID[p.Parent] {
			if p.Name == "test" || strings.HasPrefix(p.Name, "router.") {
				return p.Name
			}
		}
		return ""
	}
	under := map[string]int{} // "router parent>span" → count
	var build telemetry.SpanRecord
	for _, sp := range spans {
		if !sp.Ended {
			t.Fatalf("span %s was never ended", sp.Name)
		}
		switch sp.Name {
		case "router.join.build":
			build = sp
			fallthrough
		case "router.join", opSelect, opAgg:
			under[routerParent(sp)+">"+sp.Name]++
		}
	}
	edges := map[string]int{
		"test>router.join":              1,
		"router.join>router.join.build": 1,
		"router.join.build>cl.select":   3,
		"router.join>cl.agg":            3,
	}
	if len(under) != len(edges) {
		t.Fatalf("trace has edges %v, want only %v", under, edges)
	}
	for edge, want := range edges {
		if under[edge] != want {
			t.Fatalf("trace has %d %s edges, want %d (all: %v)", under[edge], edge, want, under)
		}
	}
	attrs := map[string]string{}
	for _, a := range build.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["table"] != "dim" || attrs["strategy"] != strategyBroadcast || attrs["rows"] != fmt.Sprint(dim) || attrs["bytes"] == "" {
		t.Fatalf("router.join.build attrs %v", attrs)
	}
}

// TestJoinFailoverBetweenBuildAndProbe kills a replica after the build side
// was fetched and before the statement goes out: the probe round must fail
// over per shard and still produce the exact answer, and so must a whole
// join started after the kill.
func TestJoinFailoverBetweenBuildAndProbe(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	joinFixture(t, tc, base, 900, 60)
	ctx := context.Background()
	rowsSQL := `SELECT events.id, d.w FROM events JOIN dim d ON events.dim_id = d.id WHERE d.grp < 3 ORDER BY d.w DESC, events.id LIMIT 70`

	r := tc.router(0)
	for _, sql := range []string{joinFixtureSQL, rowsSQL} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		jp, err := r.prepareJoin(ctx, sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(jp.builds) != 1 {
			t.Fatalf("%q: %d build tables fetched, want 1", sql, len(jp.builds))
		}
		// kill -9 of node 1 (idempotent: the second statement finds it dead).
		_ = tc.nodes[1].tcp.Close()
		got, err := r.scatter(ctx, jp.sel, plan.IsAggregate(jp.sel), shardRequest{SQL: sql, Builds: jp.builds})
		if err != nil {
			t.Fatalf("%q: probe round did not survive the kill: %v", sql, err)
		}
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "probe after kill: "+sql, ref, got)
		if got, err = tc.router(2).Query(ctx, sql); err != nil {
			t.Fatalf("%q through node 2 after the kill: %v", sql, err)
		}
		sameResult(t, "whole join after kill: "+sql, ref, got)
	}
	if h := r.Health(); h[1].Up {
		t.Fatalf("victim still marked up: %+v", h[1])
	}
}

// TestRouterDropsStaleCatalogAfterForeignDDL: router 0 caches a table's
// definition and splitter; the table is then dropped and recreated with
// another schema and segmentation through router 1. Router 0 learns of it
// from the catalog epoch on the next reply it sees, so a COPY and joins
// through it — resolved from the cache — answer from the new catalog.
func TestRouterDropsStaleCatalogAfterForeignDDL(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	both := func(sql string, via int) {
		t.Helper()
		if err := base.ExecContext(ctx, sql); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.router(via).Query(ctx, sql); err != nil {
			t.Fatalf("%q via node %d: %v", sql, via, err)
		}
	}
	both(`CREATE TABLE a (id INTEGER, k INTEGER) SEGMENTED BY HASH(id)`, 0)
	both(`CREATE TABLE b (id INTEGER, x FLOAT) SEGMENTED BY HASH(id)`, 0)
	both(`INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (4, 10), (5, 20), (6, 30)`, 0)
	both(`INSERT INTO b VALUES (1, 0.5), (2, 1.5), (3, 2.5), (10, 3.5)`, 0)
	check := func(sql string, want ...string) {
		t.Helper()
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.router(0).Query(ctx, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		sameResult(t, sql, ref, got)
		if got := joinStrategies(t, tc.router(0), sql); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q: EXPLAIN names %v, want %v", sql, got, want)
		}
	}
	check(`SELECT a.id, b.x FROM a JOIN b ON a.id = b.id ORDER BY a.id`, "join b: co-located on id")

	// b comes back wider, and segmented by its new column, through node 1.
	both(`DROP TABLE b`, 1)
	both(`CREATE TABLE b (id INTEGER, k INTEGER, x FLOAT) SEGMENTED BY HASH(k)`, 1)

	// The first statement through router 0 still resolves from its cache —
	// the co-located plan over the old b, which names no column k — fails to
	// resolve, and is resolved again from fresh definitions.
	check(`SELECT a.id, b.x FROM a JOIN b ON a.k = b.k ORDER BY a.id`, "join b: broadcast 0 rows, 0 KB")
	schema := colstore.Schema{{Name: "id", Type: colstore.TypeInt64}, {Name: "k", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64}}
	loadBoth(t, base, tc, "b", schema, [][]any{{int64(1), int64(10), 0.5}, {int64(2), int64(20), 1.5}, {int64(7), int64(30), 2.5}, {int64(8), int64(40), 3.5}})
	check(`SELECT a.id, b.x FROM a JOIN b ON a.k = b.k ORDER BY a.id, b.x`, "join b: broadcast 4 rows, 0 KB")
	// The old strategy would be wrong now: b is no longer placed by id.
	check(`SELECT a.id, b.x FROM a JOIN b ON a.id = b.id ORDER BY a.id`, "join b: broadcast 4 rows, 0 KB")

	// And with nothing failing to resolve: only the segmentation of a
	// changes, through node 2. A COPY through router 0 is split by the old
	// hash column: every peer refuses it, router 0 splits it again from
	// fresh definitions, and the rows land where a co-located join on k will
	// look for them.
	both(`DROP TABLE a`, 2)
	both(`CREATE TABLE a (id INTEGER, k INTEGER) SEGMENTED BY HASH(k)`, 2)
	gen := tc.router(0).tableGen()
	loadBoth(t, base, tc, "a", colstore.Schema{{Name: "id", Type: colstore.TypeInt64}, {Name: "k", Type: colstore.TypeInt64}},
		[][]any{{int64(1), int64(10)}, {int64(2), int64(20)}, {int64(3), int64(30)}, {int64(4), int64(50)}})
	if tc.router(0).tableGen() == gen {
		t.Fatal("the refused load's replies, carrying a newer catalog epoch, did not drop router 0's cache")
	}
	check(`SELECT a.id, b.x FROM a JOIN b ON a.k = b.k ORDER BY a.id, b.x`, "join b: co-located on k")

	// Last, a stale definition that still resolves, to a strategy that is now
	// wrong: a moves back to HASH(id), DDL and COPY both through node 2.
	// Router 0 runs the join co-located, sees the newer epoch on the shards'
	// replies, discards that answer and runs it again as a broadcast.
	both(`DROP TABLE a`, 2)
	both(`CREATE TABLE a (id INTEGER, k INTEGER) SEGMENTED BY HASH(id)`, 2)
	both(`INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 10), (6, 20)`, 2)
	gen = tc.router(0).tableGen()
	check(`SELECT a.id, b.x FROM a JOIN b ON a.k = b.k ORDER BY a.id, b.x`, "join b: broadcast 4 rows, 0 KB")
	if tc.router(0).tableGen() == gen {
		t.Fatal("replies carrying a newer catalog epoch did not drop router 0's cache")
	}
}

// TestOverlayBuildsRejectsMalformedRequests: everything about a shipped
// build table came off a wire and must fail as an error.
func TestOverlayBuildsRejectsMalformedRequests(t *testing.T) {
	schema := colstore.Schema{{Name: "id", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64}}
	rows := colstore.NewBatch(schema)
	if err := rows.AppendRow(int64(1), 0.5); err != nil {
		t.Fatal(err)
	}
	chunk, err := vft.EncodeChunk(rows)
	if err != nil {
		t.Fatal(err)
	}
	ok := buildTable{Join: 0, Schema: schema, chunk: chunk}
	const sql = `SELECT t.id, u.x FROM t JOIN t u ON t.id = u.id`
	with := func(f func(*buildTable)) buildTable {
		b := ok
		f(&b)
		return b
	}
	for name, c := range map[string]struct {
		sql    string
		builds []buildTable
		is     error
	}{
		"out of range":     {sql, []buildTable{with(func(b *buildTable) { b.Join = 1 })}, nil},
		"negative":         {sql, []buildTable{with(func(b *buildTable) { b.Join = -1 })}, nil},
		"duplicate":        {sql, []buildTable{ok, ok}, nil},
		"no joins":         {`SELECT id FROM t`, []buildTable{ok}, nil},
		"not a select":     {`DROP TABLE t`, []buildTable{ok}, nil},
		"wrong types":      {sql, []buildTable{with(func(b *buildTable) { b.Schema = colstore.Schema{schema[1], schema[0]} })}, nil},
		"missing column":   {sql, []buildTable{with(func(b *buildTable) { b.Schema = schema[:1] })}, nil},
		"duplicate column": {sql, []buildTable{with(func(b *buildTable) { b.Schema = colstore.Schema{schema[0], schema[0]} })}, nil},
		"invalid type":     {sql, []buildTable{with(func(b *buildTable) { b.Schema = colstore.Schema{{Name: "id", Type: 9}} })}, nil},
		"no schema":        {sql, []buildTable{with(func(b *buildTable) { b.Schema = nil })}, nil},
		"truncated":        {sql, []buildTable{with(func(b *buildTable) { b.chunk = chunk[:len(chunk)-3] })}, nil},
		"oversized":        {sql, []buildTable{with(func(b *buildTable) { b.chunk = make([]byte, maxJoinBuildBytes+1) })}, verr.ErrJoinTooLarge},
		"name taken":       {`SELECT a.id FROM "t#0" a JOIN t u ON a.id = u.id`, []buildTable{ok}, nil},
	} {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = overlayBuilds(context.Background(), stmt, c.builds)
		if err == nil || (c.is != nil && !errors.Is(err, c.is)) {
			t.Fatalf("%s: overlayBuilds error %v, want %v", name, err, c.is)
		}
	}
	// The well-formed request, and a self-join at that: FROM t stays the
	// stored table, JOIN t u reads the shipped rows.
	stmt, _ := sqlparse.Parse(sql)
	tables, err := overlayBuilds(context.Background(), stmt, []buildTable{ok})
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sqlparse.Select)
	if sel.From != "t" || sel.Joins[0].Table != "t#0" || sel.Joins[0].Alias != "u" || tables["t#0"].seg.Rows() != 1 {
		t.Fatalf("overlay rewrote the statement to %s over %v", sel, tables)
	}
	if !strings.Contains(sel.String(), `JOIN "t#0" AS u`) {
		t.Fatalf("overlaid statement renders as %s", sel)
	}
}

// TestJoinsConcurrentWithForeignDDL: joins through one router stay exact
// while DDL on another table through another router keeps moving the catalog
// epoch under its cache — every epoch change drops the cache and re-runs the
// joins in flight, from several goroutines at once.
func TestJoinsConcurrentWithForeignDDL(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	joinFixture(t, tc, base, 600, 40)
	ctx := context.Background()
	stmts := []string{
		joinFixtureSQL,
		`SELECT events.id, d.w FROM events JOIN dim d ON events.dim_id = d.id WHERE d.grp = 2 ORDER BY events.id LIMIT 20`,
		`SELECT count(*) AS n FROM events JOIN events e ON events.id = e.id`,
	}
	refs := make([]*sqlexec.Result, len(stmts))
	for i, sql := range stmts {
		var err error
		if refs[i], err = base.QueryContext(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	ddlDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				ddlDone <- nil
				return
			default:
			}
			sql := `CREATE TABLE scratch (id INTEGER) SEGMENTED BY HASH(id)`
			if i%2 == 1 {
				sql = `DROP TABLE scratch`
			}
			if _, err := tc.router(1).Query(ctx, sql); err != nil {
				ddlDone <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 15; i++ {
				k := (g + i) % len(stmts)
				got, err := tc.router(0).Query(ctx, stmts[k])
				if err != nil {
					errs <- fmt.Errorf("%q: %w", stmts[k], err)
					return
				}
				if fmt.Sprint(got.Rows()) != fmt.Sprint(refs[k].Rows()) {
					errs <- fmt.Errorf("%q: got %v, want %v", stmts[k], got.Rows(), refs[k].Rows())
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	if err := <-ddlDone; err != nil {
		t.Error(err)
	}
}
