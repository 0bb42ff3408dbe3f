package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/core"
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

// TestClusterDifftestJoins drives the generated join battery through the
// router's gather fallback: whole tables fetched shard by shard, rebuilt as
// local segments in shard order, joined at the router. The join tables get
// the adversarial float palette (NaN, -0.0), so the vft transport's exact
// bits are load-bearing.
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

	for _, name := range []string{"t", "u"} {
		ddl := fmt.Sprintf(testDDL, name, "HASH(id)")
		if err := base.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
		tc.exec(ddl)
		n := lrows
		if name == "u" {
			n = rrows
		}
		fdb, err := gen.JoinTable(name, n)
		if err != nil {
			t.Fatal(err)
		}
		loadBoth(t, base, tc, name, schema, fdb.SrcRows)
	}

	for q := 0; q < nqueries; q++ {
		sql := gen.JoinQuery(lrows, rrows).String()
		ref, refErr := base.QueryContext(ctx, sql)
		got, gotErr := tc.router(q).Query(ctx, sql)
		if (refErr != nil) != (gotErr != nil) {
			t.Fatalf("join %d %q: baseline err %v, routed err %v", q, sql, refErr, gotErr)
		}
		if refErr != nil {
			continue
		}
		sameResult(t, fmt.Sprintf("join %d %q", q, sql), ref, got)
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
