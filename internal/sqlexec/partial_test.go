package sqlexec

import (
	"context"
	"strings"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/vft"
)

// TestMergeAggPartialsRejectsMalformed: a partial batch comes off a wire, so
// one that does not fit the statement must be refused with an error — never a
// panic, never a merged row.
func TestMergeAggPartialsRejectsMalformed(t *testing.T) {
	const grouped = "SELECT g, count(*), sum(w), min(k) FROM t GROUP BY g"
	const global = "SELECT count(*), sum(w) FROM t"
	// part builds a batch from its columns; the names follow the well-formed
	// partial of the grouped statement wherever the positions agree.
	part := func(cols ...*colstore.Vector) *colstore.Batch {
		names := []string{"g", "count", "sum(w)", "min(k)", "extra"}
		b := &colstore.Batch{Cols: cols}
		for i, c := range cols {
			b.Schema = append(b.Schema, colstore.ColumnSchema{Name: names[i], Type: c.Type})
		}
		return b
	}
	g := colstore.StringVector([]string{"red", "blue"})
	count := colstore.IntVector([]int64{2, 1})
	sum := colstore.FloatVector([]float64{1.5, -2})
	minK := colstore.IntVector([]int64{-1, 7})
	good := part(g, count, sum, minK)

	res, err := MergeAggPartials(context.Background(), selStmt(t, grouped), []*colstore.Batch{good, good})
	if err != nil {
		t.Fatalf("well-formed partials: %v", err)
	}
	if rows := res.Rows(); len(rows) != 2 || rows[0][0] != "red" || rows[0][1] != int64(4) || rows[0][2] != 3.0 || rows[0][3] != int64(-1) {
		t.Fatalf("well-formed partials merged to %v", rows)
	}

	cases := []struct {
		name, sql string
		parts     []*colstore.Batch
		want      string // substring of the error
	}{
		{"too few columns", grouped, []*colstore.Batch{part(g, count, sum)}, "3 columns, the statement needs 4"},
		{"too many columns", grouped, []*colstore.Batch{part(g, count, sum, minK, minK)}, "5 columns, the statement needs 4"},
		{"count column FLOAT", grouped, []*colstore.Batch{part(g, sum, sum, minK)}, "count column is FLOAT"},
		{"SUM column VARCHAR", grouped, []*colstore.Batch{part(g, count, g, minK)}, "SUM column is VARCHAR"},
		{"key types differ between shards", grouped, []*colstore.Batch{good, part(minK, count, sum, minK)}, "shard 1 partial schema mismatch"},
		{"extreme types differ between shards", grouped, []*colstore.Batch{good, part(g, count, sum, g)}, "shard 1 partial schema mismatch"},
		{"negative count", grouped, []*colstore.Batch{part(g, colstore.IntVector([]int64{2, -1}), sum, minK)}, "counts -1 rows"},
		{"ragged column lengths", grouped, []*colstore.Batch{part(g, count, colstore.FloatVector([]float64{1.5}), minK)}, "has 1 rows, expected 2"},
		{"schema and columns disagree", grouped, []*colstore.Batch{{Schema: good.Schema, Cols: good.Cols[:3]}}, "3 columns, schema has 4"},
		{"ungrouped statement with 2 rows", global, []*colstore.Batch{part(count, sum)}, "ungrouped aggregate has 2 groups"},
		{"missing shard", grouped, []*colstore.Batch{good, nil}, "missing shard partial"},
		{"no shards", grouped, nil, "no shard partials"},
	}
	for _, c := range cases {
		res, err := MergeAggPartials(context.Background(), selStmt(t, c.sql), c.parts)
		if err == nil {
			t.Fatalf("%s: merged to %v", c.name, res.Rows())
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q lacks %q", c.name, err, c.want)
		}
	}
}

// fuzzPartialSeedRows is the table behind the fuzz target's honest shard and
// its seed chunks: every palette string, NaN, both zeros and an Inf.
var fuzzPartialSeedRows = []byte{0x07, 0x27, 0x47, 0x67, 0x87, 0x0a, 0x71, 0x7a, 0xff}

// FuzzMergeAggPartials feeds the router-side import arbitrary bytes: decoded
// as a vft chunk under the statement's partial schema, then merged behind an
// honest shard's partial. Nothing may panic, and a chunk that decodes must
// merge exactly like its own re-encoding — the batch, not the bytes it
// arrived in, is the partial.
func FuzzMergeAggPartials(f *testing.F) {
	for q, sql := range fuzzAggQueries {
		for _, rows := range [][]byte{fuzzPartialSeedRows, nil} {
			b, err := RunPartialAggregate(context.Background(), fuzzAggDB(f, 7, true, rows), selStmt(f, sql))
			if err != nil {
				f.Fatal(err)
			}
			chunk, err := vft.EncodeChunk(b)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(q), chunk)
		}
	}
	f.Fuzz(func(t *testing.T, qSel uint8, chunk []byte) {
		ctx := context.Background()
		sel := selStmt(t, fuzzAggQueries[int(qSel)%len(fuzzAggQueries)])
		honest, err := RunPartialAggregate(ctx, fuzzAggDB(t, 7, true, fuzzPartialSeedRows), sel)
		if err != nil {
			t.Fatal(err)
		}
		b, err := vft.DecodeChunk(chunk, honest.Schema)
		if err != nil {
			return
		}
		res, mergeErr := MergeAggPartials(ctx, sel, []*colstore.Batch{honest, b})

		again, err := vft.EncodeChunk(b)
		if err != nil {
			t.Fatalf("decoded chunk does not re-encode: %v", err)
		}
		b2, err := vft.DecodeChunk(again, honest.Schema)
		if err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		res2, mergeErr2 := MergeAggPartials(ctx, sel, []*colstore.Batch{honest, b2})
		if (mergeErr != nil) != (mergeErr2 != nil) || (mergeErr != nil && mergeErr.Error() != mergeErr2.Error()) {
			t.Fatalf("merge error differs after re-encoding: %v vs %v", mergeErr, mergeErr2)
		}
		if mergeErr == nil {
			resultsIdentical(t, "chunk vs its re-encoding", res, res2)
		}
	})
}
