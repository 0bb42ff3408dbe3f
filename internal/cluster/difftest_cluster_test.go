package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/core"
	"verticadr/internal/parallel"
	"verticadr/internal/sqlexec/difftest"
)

// The routed difftest: the same generated query battery the single-process
// engine is pinned by, replayed against a 3-node TCP cluster and compared
// bitwise with a single-process session holding identical data. Shard
// reads cross real sockets as exact vft chunks, so any float bit the
// cluster path perturbs fails the comparison.

func clusterDiffCounts(t *testing.T) (nrows, nqueries int) {
	if testing.Short() {
		return 120, 20
	}
	return 240, 70
}

func TestClusterDifftestRoutedMatchesSingleNode(t *testing.T) {
	for _, seg := range []string{"HASH(id)", "ROUND ROBIN"} {
		seg := seg
		t.Run(strings.Fields(seg)[0], func(t *testing.T) {
			t.Parallel()
			nrows, nqueries := clusterDiffCounts(t)
			tc := startCluster(t, 3, 3, 2)
			base := startBaseline(t, 3)
			ctx := context.Background()

			gen := difftest.NewGen(0x5eed + int64(len(seg)))
			schema := difftest.TableSchema()
			ddl := fmt.Sprintf(testDDL, "t", seg)
			if err := base.ExecContext(ctx, ddl); err != nil {
				t.Fatal(err)
			}
			tc.exec(ddl)

			// Load in several batches so the round-robin splitter cursor has
			// to survive across COPY calls on both sides.
			fdb, err := gen.Table(nrows)
			if err != nil {
				t.Fatal(err)
			}
			rows := fdb.SrcRows
			for off := 0; off < len(rows); off += 77 {
				end := off + 77
				if end > len(rows) {
					end = len(rows)
				}
				loadBoth(t, base, tc, "t", schema, rows[off:end])
			}

			for q := 0; q < nqueries; q++ {
				sql := gen.Query(nrows).String()
				ref, refErr := base.QueryContext(ctx, sql)
				got, gotErr := tc.router(q).Query(ctx, sql)
				if (refErr != nil) != (gotErr != nil) {
					t.Fatalf("query %d %q: baseline err %v, routed err %v", q, sql, refErr, gotErr)
				}
				if refErr != nil {
					continue
				}
				sameResult(t, fmt.Sprintf("query %d %q", q, sql), ref, got)
			}
		})
	}
}

// joinStrategies EXPLAINs a join through r and returns the header's
// "join <alias>: <strategy> ..." lines, one per joined table.
func joinStrategies(t *testing.T, r *Router, sql string) []string {
	t.Helper()
	res, err := r.Query(context.Background(), "EXPLAIN "+sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var out []string
	for _, row := range res.Rows() {
		if line := strings.TrimSpace(row[0].(string)); strings.HasPrefix(line, "join ") {
			out = append(out, line)
		}
	}
	return out
}

// TestClusterDifftestJoins drives joins through the distributed hash join —
// build sides broadcast or co-located, the statement run per shard, rows or
// partials merged at the router — and compares every answer bitwise with a
// single-process session holding identical data: the generated battery, then
// a fixed list covering the shapes the strategy choice turns on, each through
// all three nodes' routers with the strategy EXPLAIN reports pinned. The
// tables carry the adversarial float palette (NaN, -0.0, +0.0), so the vft
// transport's exact bits and the NaN-matches-everything key rule are
// load-bearing.
func TestClusterDifftestJoins(t *testing.T) {
	nqueries := 24
	lrows, rrows := 90, 70
	if testing.Short() {
		nqueries = 8
	}
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	gen := difftest.NewGen(0x10ad)
	schema := difftest.TableSchema()

	load := func(g *difftest.Gen, name, seg string, rows int, palette []float64) {
		t.Helper()
		ddl := fmt.Sprintf(testDDL, name, seg)
		if err := base.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
		tc.exec(ddl)
		fdb, err := g.JoinTable(name, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range fdb.SrcRows {
			if len(palette) > 0 && i%6 == 0 {
				row[3] = palette[(i/6)%len(palette)]
			}
			if len(palette) > 0 && i%7 == 0 {
				row[4] = palette[(i/7)%len(palette)]
			}
		}
		loadBoth(t, base, tc, name, schema, fdb.SrcRows)
	}
	check := func(label string, r *Router, sql string) {
		t.Helper()
		ref, refErr := base.QueryContext(ctx, sql)
		got, gotErr := r.Query(ctx, sql)
		if (refErr != nil) != (gotErr != nil) {
			t.Fatalf("%s %q: baseline err %v, routed err %v", label, sql, refErr, gotErr)
		}
		if refErr == nil {
			sameResult(t, fmt.Sprintf("%s %q", label, sql), ref, got)
		}
	}

	load(gen, "t", "HASH(id)", lrows, nil)
	load(gen, "u", "HASH(id)", rrows, nil)
	for q := 0; q < nqueries; q++ {
		check(fmt.Sprintf("join %d", q), tc.router(q), gen.JoinQuery(lrows, rrows).String())
	}

	// The fixed list. f and g carry the palette on both FLOAT columns for the
	// FLOAT-key cases; no statement sorts by, or takes MIN/MAX of, a column
	// holding NaN — NaN compares equal to everything, so those depend on the
	// order rows are met in, on one node as much as across shards.
	fixed := difftest.NewGen(0xf10a7)
	load(fixed, "v", "HASH(id)", 40, nil)
	load(fixed, "w", "ROUND ROBIN", 30, nil)
	palette := []float64{math.NaN(), math.Copysign(0, -1), 0, 2.5}
	load(fixed, "f", "HASH(id)", 60, palette)
	load(fixed, "g", "HASH(id)", 50, palette)
	for i, c := range []struct {
		sql  string
		want []string // EXPLAIN's strategy per joined table, by prefix
	}{
		// Self-joins: the JOIN position, not the table name, addresses a
		// shipped build side, so FROM t keeps reading the shard's own rows.
		{`SELECT t.id, r.a FROM t JOIN t r ON t.id = r.id ORDER BY t.id LIMIT 40`,
			[]string{"join r: co-located on id"}},
		{`SELECT t.id, r.id AS rid FROM t JOIN t r ON t.a = r.b WHERE r.flag ORDER BY t.id, rid LIMIT 50`,
			[]string{"join r: broadcast"}},
		// Three-table chains: u rides on t's segmentation; v joins u either
		// on u's segmentation column (still co-located) or off it.
		{`SELECT t.id, u.b, v.s FROM t JOIN u ON t.id = u.id JOIN v ON u.id = v.id`,
			[]string{"join u: co-located on id", "join v: co-located on id"}},
		{`SELECT t.id, u.b, v.s FROM t JOIN u ON t.id = u.id JOIN v ON u.a = v.a WHERE v.b > 0`,
			[]string{"join u: co-located on id", "join v: broadcast"}},
		// A broadcast table's rows are not the shard's own: what joins it on
		// its segmentation column is not co-located either.
		{`SELECT t.id, u.id AS uid, v.id AS vid FROM t JOIN u ON t.a = u.b JOIN v ON u.id = v.id WHERE u.a > 10`,
			[]string{"join u: broadcast", "join v: broadcast"}},
		{`SELECT t.id, w.s FROM t JOIN w ON t.id = w.id`, []string{"join w: broadcast"}},
		// FLOAT keys: a NaN key matches every shard's rows, ±0.0 coincide.
		{`SELECT f.id, g.id AS gid, f.x, g.y FROM f JOIN g ON f.x = g.y`, []string{"join g: broadcast"}},
		{`SELECT f.id, g.id AS gid, g.x FROM f JOIN g ON g.x = f.x WHERE f.id < 30`, []string{"join g: broadcast"}},
		{`SELECT f.id, g.id AS gid FROM f JOIN g ON f.a = g.x ORDER BY gid DESC, f.id LIMIT 30`, []string{"join g: broadcast"}},
		{`SELECT f.s, count(*) AS n, sum(g.b) AS sb FROM f JOIN g ON f.y = g.y GROUP BY f.s ORDER BY f.s`, []string{"join g: broadcast"}},
		// Ordered and limited row joins: per-shard sort, k-way merge.
		{`SELECT t.id, u.id AS uid, t.s FROM t JOIN u ON t.a = u.a ORDER BY t.s DESC, uid LIMIT 25`,
			[]string{"join u: broadcast"}},
		{`SELECT * FROM t JOIN u ON t.id = u.id WHERE t.a > 5 ORDER BY u.b, t.id`, []string{"join u: co-located on id"}},
		{`SELECT t.id FROM t JOIN u ON t.id = u.id WHERE u.a > 1000`, []string{"join u: co-located on id"}},
		// Aggregates over joins: partial batches folded in shard order.
		{`SELECT u.s, count(*) AS n, sum(t.x) AS sx, avg(t.b) AS ab, max(u.b) AS mb FROM t JOIN u ON t.id = u.id GROUP BY u.s ORDER BY u.s`,
			[]string{"join u: co-located on id"}},
		{`SELECT t.flag, u.a, count(*) AS n, sum(u.y) AS sy FROM t JOIN u ON t.b = u.a GROUP BY t.flag, u.a ORDER BY n DESC, u.a LIMIT 12`,
			[]string{"join u: broadcast"}},
		{`SELECT count(*) AS n, sum(u.b) AS sb, min(t.id) AS lo FROM t JOIN u ON t.x = u.x WHERE t.flag AND u.a > 0`,
			[]string{"join u: broadcast"}},
		{`SELECT v.s, count(*) AS n FROM t JOIN u ON t.id = u.id JOIN v ON u.b = v.b GROUP BY v.s`,
			[]string{"join u: co-located on id", "join v: broadcast"}},
	} {
		for r := range tc.nodes {
			check(fmt.Sprintf("case %d via node %d", i, r), tc.router(r), c.sql)
			got := joinStrategies(t, tc.router(r), c.sql)
			if len(got) != len(c.want) {
				t.Fatalf("case %d %q: EXPLAIN names %v, want %v", i, c.sql, got, c.want)
			}
			for k := range got {
				if !strings.HasPrefix(got[k], c.want[k]) {
					t.Fatalf("case %d %q: EXPLAIN names %v, want %v", i, c.sql, got, c.want)
				}
			}
		}
	}
}

// TestClusterDifftestKeySpanWidening is the routed twin of difftest's
// widening suite: t and u are each loaded in two COPY batches, the second
// widening the INTEGER keys below and above the first, with every shard over
// two 4096-row chunks. The dense key span a shard's chunk or a join's build
// side takes from its first block, and the one the router's merge takes from
// the first shard's partial, miss later keys on both sides; every answer
// must still match the single-process session bit for bit, group order
// included, through each node's router at degrees 1, 2 and 4.
func TestClusterDifftestKeySpanWidening(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	gen := difftest.NewGen(0x51de)
	schema := difftest.TableSchema()
	for _, tb := range []struct {
		name          string
		first, second int
	}{{"t", 9000, 16000}, {"u", 150, 250}} {
		ddl := fmt.Sprintf(testDDL, tb.name, "HASH(id)")
		if err := base.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
		tc.exec(ddl)
		for _, rows := range gen.WideningLoads(tb.first, tb.second) {
			loadBoth(t, base, tc, tb.name, schema, rows)
		}
	}
	for _, deg := range []int{1, 2, 4} {
		parallel.SetDefaultDegree(deg)
		for i, sql := range difftest.WideningQueries {
			r := tc.router(i + deg)
			label := fmt.Sprintf("degree %d via router %d: %q", deg, (i+deg)%len(tc.nodes), sql)
			ref, err := base.QueryContext(ctx, sql)
			if err != nil {
				t.Fatalf("%s: baseline: %v", label, err)
			}
			got, err := r.Query(ctx, sql)
			if err != nil {
				t.Fatalf("%s: routed: %v", label, err)
			}
			if len(ref.Rows()) == 0 {
				t.Fatalf("%s: no rows", label)
			}
			sameResult(t, label, ref, got)
		}
	}
}

// TestClusterPredictMatchesSingleNode deploys the same GLM on every peer
// and on the baseline, then compares routed PREDICT output — per-shard
// UDTF runs concatenated in shard order — bitwise with the single-process
// engine.
func TestClusterPredictMatchesSingleNode(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	gen := difftest.NewGen(0x91ed)
	schema := difftest.TableSchema()

	ddl := fmt.Sprintf(testDDL, "t", "HASH(id)")
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	tc.exec(ddl)
	fdb, err := gen.Table(200)
	if err != nil {
		t.Fatal(err)
	}
	loadBoth(t, base, tc, "t", schema, fdb.SrcRows)

	model := &algos.GLMModel{
		Family:       algos.Gaussian,
		Coefficients: []float64{0.25, 1.5, -2.25},
		Converged:    true,
	}
	deploy := func(s *core.Session) {
		if err := s.DeployModel("m", "tester", "cluster difftest model", model); err != nil {
			t.Fatal(err)
		}
	}
	deploy(base)
	for _, n := range tc.nodes {
		deploy(n.sess)
	}

	for q, sql := range []string{
		`SELECT GlmPredict(x, y USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t`,
		`SELECT GlmPredict(x, y USING PARAMETERS model='m') OVER (PARTITION BEST) FROM t WHERE a > 0`,
	} {
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.router(q).Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, sql, ref, got)
	}
}

// TestClusterPredictErrorsDoNotDependOnData: through the router — every
// shard's peer running its own function instances — an unknown model, a
// user without READ and a call of the wrong arity fail whether the table is
// empty, filtered out entirely, or populated, exactly as on one node; the
// sound statement answers with the matching rows.
func TestClusterPredictErrorsDoNotDependOnData(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()
	schema := difftest.TableSchema()
	for _, table := range []string{"none", "t"} {
		ddl := fmt.Sprintf(testDDL, table, "HASH(id)")
		if err := base.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
		tc.exec(ddl)
	}
	fdb, err := difftest.NewGen(0x23).Table(200)
	if err != nil {
		t.Fatal(err)
	}
	loadBoth(t, base, tc, "t", schema, fdb.SrcRows)
	model := &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{0.25, 1.5, -2.25}, Converged: true}
	sessions := []*core.Session{base}
	for _, n := range tc.nodes {
		sessions = append(sessions, n.sess)
	}
	for _, s := range sessions {
		if err := s.DeployModel("m", "alice", "", model); err != nil {
			t.Fatal(err)
		}
		if err := s.Models.Restrict("m", "alice"); err != nil {
			t.Fatal(err)
		}
	}
	q := 0
	for _, from := range []string{"none", "t WHERE id > 1000000", "t WHERE x + y > 1000000", "t", "t WHERE a > 0"} {
		for _, c := range []struct{ call, want string }{
			{`GlmPredict(x, y USING PARAMETERS model='nosuch')`, "nosuch"},
			{`GlmPredict(x, y USING PARAMETERS model='m', user='mallory')`, "READ"},
			{`GlmPredict(x USING PARAMETERS model='m')`, "expects 2 features"},
		} {
			sql := "SELECT " + c.call + " OVER (PARTITION BEST) FROM " + from
			if _, err := base.QueryContext(ctx, sql); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("single node, %s: err = %v, want one naming %q", sql, err, c.want)
			}
			q++
			if _, err := tc.router(q).Query(ctx, sql); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("routed, %s: err = %v, want one naming %q", sql, err, c.want)
			}
		}
		sql := "SELECT GlmPredict(x, y USING PARAMETERS model='m', user='alice') OVER (PARTITION BEST) FROM " + from
		ref, err := base.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.router(q).Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, sql, ref, got)
	}
}

// TestClusterInsertAndExplain covers the remaining routed statement kinds:
// INSERT splits like COPY, EXPLAIN routes to one peer under the cluster
// fan-out header.
func TestClusterInsertAndExplain(t *testing.T) {
	tc := startCluster(t, 3, 3, 2)
	base := startBaseline(t, 3)
	ctx := context.Background()

	ddl := fmt.Sprintf(testDDL, "t", "ROUND ROBIN")
	if err := base.ExecContext(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	tc.exec(ddl)

	ins := `INSERT INTO t VALUES (1, 2, 3, 1.5, -2.5, 'red', true), (2, -4, 5, 0.5, 7.5, 'blue', false)`
	if err := base.ExecContext(ctx, ins); err != nil {
		t.Fatal(err)
	}
	tc.exec(ins)

	sql := `SELECT id, a, x, s FROM t ORDER BY id`
	ref, err := base.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.router(1).Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, sql, ref, got)

	exp, err := tc.router(2).Query(ctx, `EXPLAIN SELECT count(*) FROM t WHERE a > 0`)
	if err != nil {
		t.Fatal(err)
	}
	rows := exp.Rows()
	if len(rows) < 3 {
		t.Fatalf("explain returned %d lines, want cluster header + plan", len(rows))
	}
	head := rows[0][0].(string)
	if !strings.Contains(head, "Cluster Route") || !strings.Contains(head, "shards=3") {
		t.Fatalf("explain header %q lacks cluster route annotation", head)
	}
	var planText strings.Builder
	for _, r := range rows {
		planText.WriteString(r[0].(string) + "\n")
	}
	if !strings.Contains(planText.String(), "Aggregate") {
		t.Fatalf("explain output lacks per-shard plan:\n%s", planText.String())
	}
}
