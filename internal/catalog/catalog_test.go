package catalog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"verticadr/internal/colstore"
)

func schema() colstore.Schema {
	return colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
	}
}

func TestCatalogCreateGetDropList(t *testing.T) {
	c := New()
	def := &TableDef{Name: "t1", Schema: schema()}
	if err := c.Create(def); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("t1")
	if err != nil || got.Name != "t1" {
		t.Fatalf("get: %v %v", got, err)
	}
	if err := c.Create(def); err == nil {
		t.Fatal("duplicate create should fail")
	}
	_ = c.Create(&TableDef{Name: "a", Schema: schema()})
	names := c.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "t1" {
		t.Fatalf("list = %v", names)
	}
	if err := c.Drop("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("t1"); err == nil {
		t.Fatal("dropped table should be gone")
	}
	if err := c.Drop("t1"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestCatalogValidation(t *testing.T) {
	c := New()
	if err := c.Create(&TableDef{Name: "", Schema: schema()}); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := c.Create(&TableDef{Name: "t", Schema: nil}); err == nil {
		t.Fatal("empty schema should fail")
	}
	dup := colstore.Schema{{Name: "a", Type: colstore.TypeInt64}, {Name: "a", Type: colstore.TypeInt64}}
	if err := c.Create(&TableDef{Name: "t", Schema: dup}); err == nil {
		t.Fatal("duplicate column should fail")
	}
	bad := &TableDef{Name: "t", Schema: schema(), Seg: Segmentation{Kind: SegHash, Column: "nope"}}
	if err := c.Create(bad); err == nil {
		t.Fatal("bad segmentation column should fail")
	}
}

func TestSegmentationString(t *testing.T) {
	if (Segmentation{Kind: SegHash, Column: "id"}).String() != "SEGMENTED BY HASH(id)" {
		t.Fatal("hash string")
	}
	if (Segmentation{}).String() != "SEGMENTED BY ROUND ROBIN" {
		t.Fatal("rr string")
	}
}

func makeBatch(t *testing.T, n int) *colstore.Batch {
	t.Helper()
	b := colstore.NewBatch(schema())
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// rows is a split destination's row count; an empty destination is nil.
func rows(p *colstore.Batch) int {
	if p == nil {
		return 0
	}
	return p.Len()
}

func TestSplitterRoundRobinEven(t *testing.T) {
	sp, err := NewSplitter(Segmentation{Kind: SegRoundRobin}, schema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := sp.SplitOwned(makeBatch(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if rows(p) != 25 {
			t.Fatalf("node %d got %d rows", i, p.Len())
		}
	}
}

func TestSplitterRoundRobinStateAcrossBatches(t *testing.T) {
	sp, _ := NewSplitter(Segmentation{Kind: SegRoundRobin}, schema(), 3)
	total := make([]int, 3)
	// 4 batches of 5 rows = 20 rows over 3 nodes: balance must be 7/7/6.
	for b := 0; b < 4; b++ {
		parts, err := sp.SplitOwned(makeBatch(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range parts {
			total[i] += rows(p)
		}
	}
	if total[0] != 7 || total[1] != 7 || total[2] != 6 {
		t.Fatalf("cross-batch balance = %v", total)
	}
}

func TestSplitterHashDeterministic(t *testing.T) {
	seg := Segmentation{Kind: SegHash, Column: "id"}
	sp1, _ := NewSplitter(seg, schema(), 5)
	sp2, _ := NewSplitter(seg, schema(), 5)
	b := makeBatch(t, 200)
	p1, _ := sp1.SplitOwned(b)
	p2, _ := sp2.SplitOwned(b)
	for i := range p1 {
		if rows(p1[i]) != rows(p2[i]) {
			t.Fatal("hash split must be deterministic")
		}
	}
	// Same id value always lands on the same node.
	single := colstore.NewBatch(schema())
	_ = single.AppendRow(int64(42), 0.0)
	q1, _ := sp1.SplitOwned(single)
	q2, _ := sp2.SplitOwned(single)
	for i := range q1 {
		if (rows(q1[i]) == 1) != (rows(q2[i]) == 1) {
			t.Fatal("same key routed to different nodes")
		}
	}
}

func TestSplitterHashRoughBalance(t *testing.T) {
	seg := Segmentation{Kind: SegHash, Column: "id"}
	sp, _ := NewSplitter(seg, schema(), 4)
	parts, _ := sp.SplitOwned(makeBatch(t, 10000))
	for i, p := range parts {
		if rows(p) < 2000 || rows(p) > 3000 {
			t.Fatalf("hash split node %d badly unbalanced: %d", i, rows(p))
		}
	}
}

func TestSplitterHashSkewOnSkewedValues(t *testing.T) {
	// All rows share one key: they must all land on one node (the skewed
	// segmentation scenario of §3.2).
	seg := Segmentation{Kind: SegHash, Column: "id"}
	sp, _ := NewSplitter(seg, schema(), 4)
	b := colstore.NewBatch(schema())
	for i := 0; i < 50; i++ {
		_ = b.AppendRow(int64(7), float64(i))
	}
	parts, _ := sp.SplitOwned(b)
	nonEmpty := 0
	for _, p := range parts {
		if rows(p) > 0 {
			nonEmpty++
			if p.Len() != 50 {
				t.Fatalf("expected all rows on one node, got %d", p.Len())
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("constant key should hit exactly one node, hit %d", nonEmpty)
	}
}

func TestSplitterErrors(t *testing.T) {
	if _, err := NewSplitter(Segmentation{}, schema(), 0); err == nil {
		t.Fatal("0 nodes should fail")
	}
	if _, err := NewSplitter(Segmentation{Kind: SegHash, Column: "zz"}, schema(), 2); err == nil {
		t.Fatal("missing hash column should fail")
	}
}

// Property: splitting preserves every row exactly once (union of parts ==
// input as a multiset, and in this implementation also per-node order).
func TestQuickSplitPreservesRows(t *testing.T) {
	f := func(ids []int64, useHash bool, nodesRaw uint8) bool {
		nodes := int(nodesRaw%7) + 1
		seg := Segmentation{Kind: SegRoundRobin}
		if useHash {
			seg = Segmentation{Kind: SegHash, Column: "id"}
		}
		sp, err := NewSplitter(seg, schema(), nodes)
		if err != nil {
			return false
		}
		b := colstore.NewBatch(schema())
		for _, id := range ids {
			_ = b.AppendRow(id, float64(id))
		}
		parts, err := sp.SplitOwned(b)
		if err != nil || len(parts) != nodes {
			return false
		}
		count := map[int64]int{}
		total := 0
		for _, p := range parts {
			if p == nil {
				continue
			}
			total += p.Len()
			for _, v := range p.Cols[0].Ints {
				count[v]++
			}
		}
		if total != len(ids) {
			return false
		}
		want := map[int64]int{}
		for _, id := range ids {
			want[id]++
		}
		if len(count) != len(want) {
			return false
		}
		for k, v := range want {
			if count[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// SplitOwned gathers each destination's rows once, straight into the batch
// it returns: a splitter's first split of rows 64 bytes wide allocates one
// copy of them plus 12 bytes a row of destinations and index lists, sized
// once, where gathering into growing builders and then copying the builders
// out allocated more than two copies.
func TestSplitOwnedCopiesOnce(t *testing.T) {
	var wide colstore.Schema
	for c := 0; c < 8; c++ {
		typ := colstore.TypeInt64
		if c%2 == 1 {
			typ = colstore.TypeFloat64
		}
		wide = append(wide, colstore.ColumnSchema{Name: fmt.Sprintf("c%d", c), Type: typ})
	}
	const n = 8192
	b := colstore.NewBatchCap(wide, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(wide))
		for c := range row {
			if c%2 == 0 {
				row[c] = int64(i * (c + 1))
			} else {
				row[c] = float64(i) / float64(c)
			}
		}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		sp, err := NewSplitter(Segmentation{Kind: SegHash, Column: "c0"}, wide, 3)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := sp.SplitOwned(b)
		if err != nil || rows(parts[0])+rows(parts[1])+rows(parts[2]) != n {
			t.Fatalf("split: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	input := float64(n * 8 * len(wide))
	copies := float64(after.TotalAlloc-before.TotalAlloc) / runs / input
	t.Logf("a split allocates %.2f times its input", copies)
	if copies > 1.5 {
		t.Fatalf("a split allocates %.2f times its input, want one copy and its index lists (under 1.5)", copies)
	}
}

// TestSplitterSchemaChangeRebuilds covers loads of different column subsets
// through one splitter: each split's batches take the schema of the batch it
// split.
func TestSplitterSchemaChangeRebuilds(t *testing.T) {
	sp, err := NewSplitter(Segmentation{Kind: SegRoundRobin}, schema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.SplitOwned(makeBatch(t, 10)); err != nil {
		t.Fatal(err)
	}
	narrow := colstore.Schema{{Name: "id", Type: colstore.TypeInt64}}
	nb := colstore.NewBatch(narrow)
	for i := 0; i < 6; i++ {
		_ = nb.AppendRow(int64(i))
	}
	parts, err := sp.SplitOwned(nb)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if p == nil || !p.Schema.Equal(narrow) {
			t.Fatalf("node %d kept the old schema", i)
		}
		if p.Len() != 3 {
			t.Fatalf("node %d rows = %d", i, p.Len())
		}
	}
}

// TestSplitOwnedSurvivesBuilderRecycle pins the ownership contract the
// write-ahead load path depends on: batches returned by SplitOwned must stay
// intact however many later splits run through the same splitter.
func TestSplitOwnedSurvivesBuilderRecycle(t *testing.T) {
	seg := Segmentation{Kind: SegHash, Column: "id"}
	sp, err := NewSplitter(seg, schema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b := makeBatch(t, 240)
	owned, err := sp.SplitOwned(b)
	if err != nil {
		t.Fatal(err)
	}
	// Split different content through the same splitter, twice.
	for i := 0; i < 2; i++ {
		if _, err := sp.SplitOwned(makeBatch(t, 61)); err != nil {
			t.Fatal(err)
		}
	}
	// Ground truth: the same hash split from a fresh splitter.
	ref, err := NewSplitter(seg, schema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SplitOwned(b)
	if err != nil {
		t.Fatal(err)
	}
	for node, w := range want {
		o := owned[node]
		if w == nil {
			if o != nil {
				t.Fatalf("node %d: owned batch for an empty destination", node)
			}
			continue
		}
		if o == nil || o.Len() != w.Len() {
			t.Fatalf("node %d: owned rows = %v, want %d", node, o, w.Len())
		}
		for r := 0; r < w.Len(); r++ {
			if o.Cols[0].Ints[r] != w.Cols[0].Ints[r] || o.Cols[1].Floats[r] != w.Cols[1].Floats[r] {
				t.Fatalf("node %d row %d was recycled out from under the owner", node, r)
			}
		}
	}
}

// A row's shard is durable — the WAL logs post-split batches and a cluster
// places rows by it — so hashValue must stay hash/fnv's FNV-1a over the
// value's bytes, for every type.
func TestHashValueIsFNV1a(t *testing.T) {
	fnv1a := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	le := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	for i, x := range ints {
		if got, want := hashValue(colstore.IntVector(ints), i), fnv1a(le(uint64(x))); got != want {
			t.Fatalf("INTEGER %d hashes to %#x, want %#x", x, got, want)
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.Float64frombits(0x7ff8deadbeef0001)}
	for i, x := range floats {
		if got, want := hashValue(colstore.FloatVector(floats), i), fnv1a(le(math.Float64bits(x))); got != want {
			t.Fatalf("FLOAT %v hashes to %#x, want %#x", x, got, want)
		}
	}
	strs := []string{"", "a", "a\x00b", "b\xff", "emea"}
	for i, x := range strs {
		if got, want := hashValue(colstore.StringVector(strs), i), fnv1a([]byte(x)); got != want {
			t.Fatalf("VARCHAR %q hashes to %#x, want %#x", x, got, want)
		}
	}
	bools := []bool{false, true}
	for i, x := range bools {
		b := byte(0)
		if x {
			b = 1
		}
		if got, want := hashValue(colstore.BoolVector(bools), i), fnv1a([]byte{b}); got != want {
			t.Fatalf("BOOLEAN %v hashes to %#x, want %#x", x, got, want)
		}
	}
}
