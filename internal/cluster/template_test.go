package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"verticadr/internal/plan"
	"verticadr/internal/server"
	"verticadr/internal/sqlexec/difftest"
	"verticadr/internal/telemetry"
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
	hits0, misses0 := hits.Value(), misses.Value()
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
			got, err := r.Execute(ctx, name, args...)
			if err != nil {
				t.Fatalf("%q %v: %v", st.sql, args, err)
			}
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
	dh, dm := hits.Value()-hits0, misses.Value()-misses0
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
		sel, err := parseSelect(sql)
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

// Shard arguments cross typed and exact, and a malformed one is an error.
func TestShardArgsCrossExactly(t *testing.T) {
	nan := math.Float64frombits(0x7ff8deadbeef0001)
	in := []any{int(-7), int64(math.MinInt64), int64(math.MaxInt64), float64(2), nan, math.Copysign(0, -1),
		math.Inf(1), "a\x00\xff", "", true, false}
	raw, err := encodeArgs(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeArgs(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		want := v
		if n, ok := v.(int); ok {
			want = int64(n)
		}
		switch w := want.(type) {
		case float64:
			if g, ok := out[i].(float64); !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("argument %d: %#v came back as %#v", i, v, out[i])
			}
		default:
			if out[i] != want {
				t.Fatalf("argument %d: %#v came back as %#v", i, v, out[i])
			}
		}
	}
	for _, bad := range []string{"", "x", "i", "i\x02\x00", "f\x00", "b", "b\x02", "b\x01\x01"} {
		if _, err := decodeArgs([]json.RawMessage{[]byte(bad)}); err == nil {
			t.Fatalf("%q decoded", bad)
		}
	}
	if _, err := encodeArgs([]any{uint8(1)}); err == nil {
		t.Fatal("a uint8 argument encoded")
	}
}
