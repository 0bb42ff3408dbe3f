package index

import (
	"math/rand"
	"testing"
)

// lookupSink keeps the compiler from discarding the benchmarked lookups.
var lookupSink []uint32

// BenchmarkLookup probes one segment's index as the benchmark's point read
// does: 62,500 distinct INTEGER keys (a quarter of serve_single's events
// table), an equality probe and a bounded 256-key range, over the packed
// tree CREATE INDEX builds and over the tree 2,048-row appends grow.
//
//	go test -run '^$' -bench Lookup -benchmem ./internal/colstore/index/
func BenchmarkLookup(b *testing.B) {
	const n = 62500
	keys := make([]int64, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(n) {
		keys[i] = int64(k)
	}
	var bld Builder
	AddKeys(&bld, keys, 0)
	bulk, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	grown, err := (&Builder{}).Build()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += 2048 {
		if grown, err = InsertKeys(grown, keys[i:min(i+2048, n)], uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		tree *Tree
	}{{"bulk", bulk}, {"inserted", grown}} {
		b.Run(tc.name+"/eq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, ok := tc.tree.Lookup(OpEQ, keys[(i*7919)%n])
				if !ok || len(rows) != 1 {
					b.Fatalf("lookup returned %d rows (handled %v)", len(rows), ok)
				}
				lookupSink = rows
			}
		})
		b.Run(tc.name+"/range", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := int64((i * 7919) % (n - 256))
				rows, ok := tc.tree.LookupRange(OpGE, lo, OpLT, lo+256)
				if !ok || len(rows) != 256 {
					b.Fatalf("range returned %d rows (handled %v)", len(rows), ok)
				}
				lookupSink = rows
			}
		})
	}
}
