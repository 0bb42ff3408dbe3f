package sqlexec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

// TestMergeShardRowsIsTheStableSortOfTheConcatenation: the typed k-way merge
// of stably sorted shard outputs must equal, value for value, finishSelect
// over the shards' rows concatenated in shard order — over every column
// type, ASC and DESC, heavy ties (the tag column tells tied rows apart) and
// every LIMIT.
func TestMergeShardRowsIsTheStableSortOfTheConcatenation(t *testing.T) {
	schema := colstore.Schema{
		{Name: "i", Type: colstore.TypeInt64}, {Name: "f", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString}, {Name: "b", Type: colstore.TypeBool},
		{Name: "tag", Type: colstore.TypeInt64},
	}
	rng := rand.New(rand.NewSource(20))
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		sel := &sqlparse.Select{Limit: -1}
		for _, ci := range rng.Perm(4)[:1+rng.Intn(3)] {
			sel.OrderBy = append(sel.OrderBy, sqlparse.OrderItem{Col: schema[ci].Name, Desc: rng.Intn(2) == 0})
		}
		if rng.Intn(2) == 0 {
			sel.Limit = rng.Intn(40)
		}
		all := colstore.NewBatch(schema)
		var shards []*colstore.Batch
		for s := 0; s < 1+rng.Intn(4); s++ {
			b := colstore.NewBatch(schema)
			for r := rng.Intn(15); r > 0; r-- {
				row := []any{int64(rng.Intn(3)), float64(rng.Intn(3)) / 2, []string{"a", "b", ""}[rng.Intn(3)], rng.Intn(2) == 0, int64(all.Len())}
				if err := b.AppendRow(row...); err != nil {
					t.Fatal(err)
				}
				if err := all.AppendRow(row...); err != nil {
					t.Fatal(err)
				}
			}
			// Each shard ships its own finished output: sorted, limited.
			sorted, err := finishSelect(ctx, b, sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, sorted.Batch)
		}
		want, err := finishSelect(ctx, all, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MergeShardRows(ctx, sel, shards)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(got.Rows()), fmt.Sprint(want.Rows()); g != w {
			t.Fatalf("trial %d, %s over %d shards:\n merged %s\n sorted %s", trial, sel, len(shards), g, w)
		}
	}
}
