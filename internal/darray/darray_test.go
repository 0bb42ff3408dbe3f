package darray

import (
	"math"
	"sync"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/dr"
)

func cluster(t *testing.T, workers int) *dr.Cluster {
	t.Helper()
	c, err := dr.Start(dr.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestMatAccessors(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("set/at")
	}
	if r := m.Row(1); len(r) != 3 || r[2] != 7 {
		t.Fatalf("row = %v", r)
	}
}

func TestDeclareWithoutAllocation(t *testing.T) {
	c := cluster(t, 3)
	a, err := New(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NPartitions() != 5 {
		t.Fatalf("nparts = %d", a.NPartitions())
	}
	// Declaration creates only metadata — no worker stores any payload yet.
	for i := 0; i < 3; i++ {
		w, _ := c.Worker(i)
		if len(w.Keys()) != 0 {
			t.Fatalf("worker %d has data before fill: %v", i, w.Keys())
		}
	}
	if a.Filled() {
		t.Fatal("unfilled array reports filled")
	}
	if _, err := New(c, 0); err == nil {
		t.Fatal("0 partitions should fail")
	}
}

func TestFillUnevenPartitions(t *testing.T) {
	// The Figure 8 scenario: partitions of 1, 3 and 2 rows.
	c := cluster(t, 3)
	a, _ := New(c, 3)
	sizes := []int{1, 3, 2}
	for i, rows := range sizes {
		m := NewMat(rows, 2)
		for r := 0; r < rows; r++ {
			m.Set(r, 0, float64(i))
			m.Set(r, 1, float64(r))
		}
		if err := a.Fill(i, m); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Filled() || a.Rows() != 6 || a.Cols() != 2 {
		t.Fatalf("rows=%d cols=%d", a.Rows(), a.Cols())
	}
	r, cc, err := a.PartitionSize(1)
	if err != nil || r != 3 || cc != 2 {
		t.Fatalf("partitionsize(1) = %d,%d,%v", r, cc, err)
	}
	all := a.PartitionSizes()
	for i, s := range sizes {
		if all[i][0] != s {
			t.Fatalf("sizes = %v", all)
		}
	}
	whole, err := a.Collect()
	if err != nil || whole.Rows != 6 {
		t.Fatalf("collect: %v rows=%d", err, whole.Rows)
	}
	if whole.At(1, 0) != 1 || whole.At(4, 0) != 2 {
		t.Fatal("collect order wrong")
	}
}

func TestConformityCheck(t *testing.T) {
	c := cluster(t, 2)
	a, _ := New(c, 2)
	if err := a.Fill(0, NewMat(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := a.Fill(1, NewMat(5, 4)); err == nil {
		t.Fatal("mismatched column count must be rejected (conformity)")
	}
	if err := a.Fill(1, NewMat(5, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestFillValidation(t *testing.T) {
	c := cluster(t, 2)
	a, _ := New(c, 2)
	if err := a.Fill(9, NewMat(1, 1)); err == nil {
		t.Fatal("bad partition index should fail")
	}
	if err := a.Fill(0, nil); err == nil {
		t.Fatal("nil matrix should fail")
	}
	if err := a.Fill(0, &Mat{Rows: 2, Cols: 2, Data: []float64{1}}); err == nil {
		t.Fatal("malformed matrix should fail")
	}
	if _, err := a.Part(0); err == nil {
		t.Fatal("part of unfilled partition should fail")
	}
	if _, _, err := a.PartitionSize(9); err == nil {
		t.Fatal("bad index should fail")
	}
}

func TestSetWorkerPlacement(t *testing.T) {
	c := cluster(t, 3)
	a, _ := New(c, 3)
	if err := a.SetWorker(0, 2); err != nil {
		t.Fatal(err)
	}
	if a.WorkerOf(0) != 2 {
		t.Fatal("placement not applied")
	}
	_ = a.Fill(0, NewMat(1, 1))
	w, _ := c.Worker(2)
	if len(w.Keys()) != 1 {
		t.Fatal("payload not on assigned worker")
	}
	if err := a.SetWorker(0, 1); err == nil {
		t.Fatal("moving a filled partition should fail")
	}
	if err := a.SetWorker(1, 9); err == nil {
		t.Fatal("bad worker should fail")
	}
	if err := a.SetWorker(9, 0); err == nil {
		t.Fatal("bad partition should fail")
	}
}

func TestClone(t *testing.T) {
	c := cluster(t, 2)
	a, _ := New(c, 3)
	for i, rows := range []int{4, 1, 2} {
		_ = a.SetWorker(i, i%2)
		if err := a.Fill(i, NewMat(rows, 5)); err != nil {
			t.Fatal(err)
		}
	}
	y, err := a.Clone(1)
	if err != nil {
		t.Fatal(err)
	}
	if y.NPartitions() != 3 || y.Cols() != 1 || y.Rows() != 7 {
		t.Fatalf("clone shape: parts=%d cols=%d rows=%d", y.NPartitions(), y.Cols(), y.Rows())
	}
	for i := 0; i < 3; i++ {
		if y.WorkerOf(i) != a.WorkerOf(i) {
			t.Fatal("clone must be co-located")
		}
		ra, _, _ := a.PartitionSize(i)
		ry, _, _ := y.PartitionSize(i)
		if ra != ry {
			t.Fatal("clone row counts must match")
		}
	}
	if err := CheckCoPartitioned(a, y); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Clone(0); err == nil {
		t.Fatal("ncol=0 should fail")
	}
	b, _ := New(c, 1)
	if _, err := b.Clone(1); err == nil {
		t.Fatal("clone of unfilled array should fail")
	}
}

func TestForeachRunsEveryPartition(t *testing.T) {
	c := cluster(t, 3)
	a, _ := New(c, 6)
	for i := 0; i < 6; i++ {
		_ = a.Fill(i, NewMat(i+1, 2))
	}
	var mu sync.Mutex
	seen := map[int]int{}
	err := a.Foreach(func(p int, m *Mat) error {
		mu.Lock()
		seen[p] = m.Rows
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("visited %d partitions", len(seen))
	}
	for p, rows := range seen {
		if rows != p+1 {
			t.Fatalf("partition %d rows %d", p, rows)
		}
	}
	empty, _ := New(c, 2)
	if err := empty.Foreach(func(int, *Mat) error { return nil }); err == nil {
		t.Fatal("foreach over unfilled array should fail")
	}
}

func TestZipCoPartitioned(t *testing.T) {
	c := cluster(t, 2)
	x, _ := New(c, 3)
	for i, rows := range []int{2, 3, 1} {
		_ = x.Fill(i, NewMat(rows, 4))
	}
	y, _ := x.Clone(1)
	var mu sync.Mutex
	var visited int
	err := Zip(x, y, func(p int, mx, my *Mat) error {
		if mx.Rows != my.Rows {
			t.Errorf("partition %d row mismatch", p)
		}
		mu.Lock()
		visited++
		mu.Unlock()
		return nil
	})
	if err != nil || visited != 3 {
		t.Fatalf("zip: %v visited=%d", err, visited)
	}
	// Non-co-partitioned arrays are rejected.
	z, _ := New(c, 2)
	_ = z.Fill(0, NewMat(2, 1))
	_ = z.Fill(1, NewMat(2, 1))
	if err := Zip(x, z, func(int, *Mat, *Mat) error { return nil }); err == nil {
		t.Fatal("zip of non-co-partitioned arrays should fail")
	}
}

func TestFromMat(t *testing.T) {
	c := cluster(t, 2)
	m := NewMat(10, 2)
	for i := 0; i < 10; i++ {
		m.Set(i, 0, float64(i))
	}
	a, err := FromMat(c, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 10 || a.Cols() != 2 {
		t.Fatalf("shape %dx%d", a.Rows(), a.Cols())
	}
	back, _ := a.Collect()
	for i := 0; i < 10; i++ {
		if back.At(i, 0) != float64(i) {
			t.Fatal("round trip order broken")
		}
	}
}

func TestDFrameBasics(t *testing.T) {
	c := cluster(t, 2)
	f, err := NewFrame(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "n", Type: colstore.TypeInt64},
	}
	b0 := colstore.NewBatch(schema)
	_ = b0.AppendRow(1.5, int64(10))
	_ = b0.AppendRow(2.5, int64(20))
	b1 := colstore.NewBatch(schema)
	_ = b1.AppendRow(3.5, int64(30))
	if err := f.Fill(0, b0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fill(1, b1); err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 3 || !f.Schema().Equal(schema) {
		t.Fatalf("frame rows=%d", f.Rows())
	}
	r, cc, _ := f.PartitionSize(0)
	if r != 2 || cc != 2 {
		t.Fatalf("psize = %d,%d", r, cc)
	}
	// Schema conformity.
	other := colstore.NewBatch(colstore.Schema{{Name: "z", Type: colstore.TypeBool}})
	_ = other.AppendRow(true)
	if err := f.Fill(0, other); err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

func TestDFrameAsDArray(t *testing.T) {
	c := cluster(t, 2)
	f, _ := NewFrame(c, 2)
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "n", Type: colstore.TypeInt64},
		{Name: "s", Type: colstore.TypeString},
	}
	b0 := colstore.NewBatch(schema)
	_ = b0.AppendRow(1.0, int64(2), "a")
	b1 := colstore.NewBatch(schema)
	_ = b1.AppendRow(3.0, int64(4), "b")
	_ = f.Fill(0, b0)
	_ = f.Fill(1, b1)
	a, err := f.AsDArray([]string{"x", "n"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 2 || a.Cols() != 2 {
		t.Fatalf("shape %dx%d", a.Rows(), a.Cols())
	}
	if a.WorkerOf(0) != f.WorkerOf(0) || a.WorkerOf(1) != f.WorkerOf(1) {
		t.Fatal("AsDArray must co-locate with the frame")
	}
	m, _ := a.Part(1)
	if m.At(0, 0) != 3.0 || m.At(0, 1) != 4.0 {
		t.Fatalf("values = %v", m.Data)
	}
	if _, err := f.AsDArray([]string{"s"}); err == nil {
		t.Fatal("string column to darray should fail")
	}
	empty, _ := NewFrame(c, 1)
	if _, err := empty.AsDArray(nil); err == nil {
		t.Fatal("empty frame should fail")
	}
}

// The tiled, partition-parallel conversion lays out exactly what writing one
// whole column after another did — floats by bits, integers converted — on
// ragged partitions, an empty one, tiles that end mid-partition, and a
// reordered, repeated column subset; and a column that cannot convert fails
// the call before any partition is filled.
func TestAsDArrayMatchesColumnAtATime(t *testing.T) {
	c := cluster(t, 3)
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "n", Type: colstore.TypeInt64},
		{Name: "s", Type: colstore.TypeString},
		{Name: "y", Type: colstore.TypeFloat64},
	}
	sizes := []int{5000, 0, 1, 4097, 31}
	f, err := NewFrame(c, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	for p, rows := range sizes {
		b := colstore.NewBatch(schema)
		for i := 0; i < rows; i++ {
			next = next*6364136223846793005 + 1442695040888963407
			x := math.Float64frombits(next) // every kind of float, NaNs included
			if err := b.AppendRow(x, int64(next>>7)-1<<55, "s", -x); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Fill(p, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]string{nil, {"x", "n", "y"}, {"y"}, {"n"}, {"y", "n", "x", "n"}} {
		if cols == nil {
			// All columns: s is in the way.
			if _, err := f.AsDArray(nil); err == nil {
				t.Fatal("a frame with a VARCHAR column converted whole")
			}
			continue
		}
		a, err := f.AsDArray(cols)
		if err != nil {
			t.Fatal(err)
		}
		for p, rows := range sizes {
			b, err := f.Part(p)
			if err != nil {
				t.Fatal(err)
			}
			want := NewMat(rows, len(cols))
			for j, name := range cols {
				col := b.Cols[schema.ColIndex(name)]
				for r := 0; r < rows; r++ {
					if col.Type == colstore.TypeFloat64 {
						want.Data[r*len(cols)+j] = col.Floats[r]
					} else {
						want.Data[r*len(cols)+j] = float64(col.Ints[r])
					}
				}
			}
			got, err := a.Part(p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != rows || got.Cols != len(cols) || a.WorkerOf(p) != f.WorkerOf(p) {
				t.Fatalf("%v partition %d: %dx%d on worker %d, want %dx%d on %d", cols, p, got.Rows, got.Cols, a.WorkerOf(p), rows, len(cols), f.WorkerOf(p))
			}
			for i, w := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
					t.Fatalf("%v partition %d: element %d is %x, want %x", cols, p, i, math.Float64bits(got.Data[i]), math.Float64bits(w))
				}
			}
		}
	}
	held := func() int {
		n := 0
		for i := 0; i < c.NumWorkers(); i++ {
			w, err := c.Worker(i)
			if err != nil {
				t.Fatal(err)
			}
			n += len(w.Keys())
		}
		return n
	}
	before := held()
	for _, cols := range [][]string{{"x", "s"}, {"x", "nosuch"}} {
		if _, err := f.AsDArray(cols); err == nil {
			t.Fatalf("AsDArray(%v) converted", cols)
		}
	}
	if after := held(); after != before {
		t.Fatalf("failed conversions left %d partitions behind on the workers", after-before)
	}
}

// A partition filled with several chunks reads as their concatenation: Part
// concatenates in order, the sizes and schema agree with the chunks, and
// AsDArray lays out exactly what it lays out over the concatenation — over
// a zero-row chunk, an INTEGER column and chunk boundaries that are not
// multiples of the 512-row tile.
func TestDFrameMultiChunkPartitions(t *testing.T) {
	c := cluster(t, 2)
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "n", Type: colstore.TypeInt64},
		{Name: "s", Type: colstore.TypeString},
		{Name: "y", Type: colstore.TypeFloat64},
	}
	next := uint64(7)
	gen := func(rows int) *colstore.Batch {
		b := colstore.NewBatch(schema)
		for i := 0; i < rows; i++ {
			next = next*6364136223846793005 + 1442695040888963407
			x := math.Float64frombits(next)
			if err := b.AppendRow(x, int64(next>>3)-1<<60, string(rune('a'+next>>60)), -x); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	layout := [][]int{{700, 0, 513, 1}, {1000}, {0}, {3, 4097, 511}}
	multi, err := NewFrame(c, len(layout))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewFrame(c, len(layout))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for p, sizes := range layout {
		var chunks []*colstore.Batch
		cat := colstore.NewBatch(schema)
		for _, n := range sizes {
			b := gen(n)
			if err := cat.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, b)
			rows += n
		}
		if err := multi.Fill(p, chunks...); err != nil {
			t.Fatal(err)
		}
		if err := whole.Fill(p, cat); err != nil {
			t.Fatal(err)
		}
	}
	if multi.Rows() != rows || !multi.Schema().Equal(schema) {
		t.Fatalf("frame holds %d rows of %v, its chunks %d of %v", multi.Rows(), multi.Schema(), rows, schema)
	}
	for p := range layout {
		got, err := multi.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := whole.Part(p)
		r, cols, _ := multi.PartitionSize(p)
		if r != want.Len() || cols != len(schema) || got.Len() != want.Len() || !got.Schema.Equal(schema) {
			t.Fatalf("partition %d: size %dx%d, Part %d rows, chunks %d rows", p, r, cols, got.Len(), want.Len())
		}
		for j, col := range got.Cols {
			w := want.Cols[j]
			for i := 0; i < got.Len(); i++ {
				if col.Type == colstore.TypeFloat64 && math.Float64bits(col.Floats[i]) != math.Float64bits(w.Floats[i]) ||
					col.Type != colstore.TypeFloat64 && col.Value(i) != w.Value(i) {
					t.Fatalf("partition %d column %s row %d: %v, want %v", p, schema[j].Name, i, col.Value(i), w.Value(i))
				}
			}
		}
	}
	for _, cols := range [][]string{{"x", "n", "y"}, {"n"}, {"y", "x"}} {
		a, err := multi.AsDArray(cols)
		if err != nil {
			t.Fatal(err)
		}
		b, err := whole.AsDArray(cols)
		if err != nil {
			t.Fatal(err)
		}
		for p := range layout {
			ma, _ := a.Part(p)
			mb, _ := b.Part(p)
			if ma.Rows != mb.Rows || ma.Cols != mb.Cols {
				t.Fatalf("%v partition %d: %dx%d over the chunks, %dx%d over their concatenation", cols, p, ma.Rows, ma.Cols, mb.Rows, mb.Cols)
			}
			for i, v := range mb.Data {
				if math.Float64bits(ma.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%v partition %d: element %d is %x over the chunks, %x over their concatenation", cols, p, i, math.Float64bits(ma.Data[i]), math.Float64bits(v))
				}
			}
		}
	}
	// Chunks must agree on the schema, and a partition needs at least one.
	fresh, _ := NewFrame(c, 1)
	other := colstore.NewBatch(colstore.Schema{{Name: "x", Type: colstore.TypeFloat64}})
	if err := fresh.Fill(0, gen(2), other); err == nil {
		t.Fatal("chunks of different schemas filled one partition")
	}
	if err := fresh.Fill(0); err == nil {
		t.Fatal("a partition filled with no chunks")
	}
	if fresh.Schema() != nil || fresh.Rows() != 0 {
		t.Fatal("a refused fill left the frame filled")
	}
}

func TestDList(t *testing.T) {
	c := cluster(t, 2)
	l, err := NewList(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.NPartitions() != 3 {
		t.Fatal("nparts")
	}
	_ = l.Fill(0, []any{1, 2})
	_ = l.Fill(1, []any{"a"})
	_ = l.Fill(2, []any{})
	n, err := l.PartitionSize(0)
	if err != nil || n != 2 {
		t.Fatalf("psize = %d %v", n, err)
	}
	all, err := l.Collect()
	if err != nil || len(all) != 3 {
		t.Fatalf("collect = %v %v", all, err)
	}
	if all[0] != 1 || all[2] != "a" {
		t.Fatalf("collect order = %v", all)
	}
	if _, err := l.Part(9); err == nil {
		t.Fatal("bad index should fail")
	}
	if _, err := NewList(c, 0); err == nil {
		t.Fatal("0 partitions should fail")
	}
	if l.WorkerOf(0) != 0 || l.WorkerOf(1) != 1 {
		t.Fatal("round-robin placement expected")
	}
}

// partitioned is the partition table DArray, DFrame and DList share.
type partitioned interface {
	Name() string
	NPartitions() int
	WorkerOf(i int) int
	SetWorker(i, worker int) error
}

// TestPartitionTable runs the three distributed objects through the behaviour
// their one partition table gives them all: declaration, round-robin
// placement, bounds, fetching an unfilled partition, moving a filled one, a
// store holding the wrong payload type, and placement read beside SetWorker.
func TestPartitionTable(t *testing.T) {
	schema := colstore.Schema{{Name: "x", Type: colstore.TypeFloat64}}
	for _, tc := range []struct {
		name    string
		declare func(c *dr.Cluster, n int) (partitioned, error)
		fill    func(o partitioned, i int) error
		part    func(o partitioned, i int) error
	}{
		{
			"darray",
			func(c *dr.Cluster, n int) (partitioned, error) { return New(c, n) },
			func(o partitioned, i int) error { return o.(*DArray).Fill(i, NewMat(2, 1)) },
			func(o partitioned, i int) error { _, err := o.(*DArray).Part(i); return err },
		},
		{
			"dframe",
			func(c *dr.Cluster, n int) (partitioned, error) { return NewFrame(c, n) },
			func(o partitioned, i int) error { return o.(*DFrame).Fill(i, colstore.NewBatch(schema)) },
			func(o partitioned, i int) error { _, err := o.(*DFrame).Part(i); return err },
		},
		{
			"dlist",
			func(c *dr.Cluster, n int) (partitioned, error) { return NewList(c, n) },
			func(o partitioned, i int) error { return o.(*DList).Fill(i, []any{1, 2}) },
			func(o partitioned, i int) error { _, err := o.(*DList).Part(i); return err },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster(t, 3)
			if _, err := tc.declare(c, 0); err == nil {
				t.Fatal("0 partitions declared")
			}
			o, err := tc.declare(c, 7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < o.NPartitions(); i++ {
				if o.WorkerOf(i) != i%3 {
					t.Fatalf("partition %d on worker %d, want round-robin %d", i, o.WorkerOf(i), i%3)
				}
			}
			for _, i := range []int{-1, 7} {
				if tc.fill(o, i) == nil || tc.part(o, i) == nil {
					t.Fatalf("partition %d of 7 filled or fetched", i)
				}
			}
			if tc.part(o, 0) == nil {
				t.Fatal("unfilled partition fetched")
			}
			if err := tc.fill(o, 0); err != nil {
				t.Fatal(err)
			}
			if err := tc.part(o, 0); err != nil {
				t.Fatal(err)
			}
			if o.SetWorker(0, 1) == nil || o.WorkerOf(0) != 0 {
				t.Fatal("a filled partition moved")
			}
			// A store holding another type is an error, not a panic.
			if err := tc.fill(o, 1); err != nil {
				t.Fatal(err)
			}
			w, _ := c.Worker(o.WorkerOf(1))
			w.Put(o.Name()+"/p1", "not a payload")
			if tc.part(o, 1) == nil {
				t.Fatal("a payload of the wrong type fetched")
			}
			// Placement is read under the lock SetWorker writes it under.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 100; k++ {
					_ = o.SetWorker(2+k%5, k%3)
				}
			}()
			for k := 0; k < 100; k++ {
				_ = o.WorkerOf(2 + k%5)
			}
			wg.Wait()
		})
	}
}
