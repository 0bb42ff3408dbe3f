package colstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

func fillSegment(t *testing.T, seg *Segment, n int) *Batch {
	t.Helper()
	all := NewBatch(seg.Schema())
	b := NewBatch(seg.Schema())
	for i := 0; i < n; i++ {
		row := []any{int64(i), float64(i) * 1.5, "s", i%3 == 0}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
		if err := all.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 100 {
			if err := seg.Append(b); err != nil {
				t.Fatal(err)
			}
			b = NewBatch(seg.Schema())
		}
	}
	if b.Len() > 0 {
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

func TestSegmentAppendScanAll(t *testing.T) {
	seg := NewSegment(testSchema(), 256)
	want := fillSegment(t, seg, 1000)
	if seg.Rows() != 1000 {
		t.Fatalf("rows = %d", seg.Rows())
	}
	got, err := seg.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1000 {
		t.Fatalf("read %d rows", got.Len())
	}
	for i := 0; i < 1000; i += 97 {
		w, g := want.Row(i), got.Row(i)
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("row %d col %d: got %v want %v", i, j, g[j], w[j])
			}
		}
	}
}

func TestSegmentProjection(t *testing.T) {
	seg := NewSegment(testSchema(), 128)
	fillSegment(t, seg, 500)
	got, err := seg.ReadAll([]string{"x", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 || got.Schema[0].Name != "x" {
		t.Fatalf("projection schema %v", got.Schema)
	}
	if got.Cols[1].Ints[42] != 42 {
		t.Fatal("projection data wrong")
	}
}

func TestSegmentPredicate(t *testing.T) {
	seg := NewSegment(testSchema(), 64)
	fillSegment(t, seg, 500)
	got, err := seg.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	var count int
	pred := &Pred{Col: "id", Op: OpGE, Val: int64(450)}
	err = seg.Scan([]string{"id"}, pred, func(b *Batch) error {
		for _, v := range b.Cols[0].Ints {
			if v < 450 {
				t.Fatalf("predicate let through %d", v)
			}
			count++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("predicate matched %d rows, want 50", count)
	}
}

func TestSegmentPredicateOnUnprojectedColumn(t *testing.T) {
	seg := NewSegment(testSchema(), 64)
	fillSegment(t, seg, 300)
	var count int
	pred := &Pred{Col: "id", Op: OpLT, Val: int64(10)}
	err := seg.Scan([]string{"x"}, pred, func(b *Batch) error {
		count += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("got %d rows, want 10", count)
	}
}

func TestSegmentPredicateOps(t *testing.T) {
	seg := NewSegment(Schema{{Name: "v", Type: TypeInt64}}, 32)
	b := NewBatch(seg.Schema())
	for i := 0; i < 100; i++ {
		_ = b.AppendRow(int64(i))
	}
	_ = seg.Append(b)
	cases := []struct {
		op   CompareOp
		val  int64
		want int
	}{
		{OpEQ, 5, 1}, {OpNE, 5, 99}, {OpLT, 10, 10},
		{OpLE, 10, 11}, {OpGT, 90, 9}, {OpGE, 90, 10},
	}
	for _, c := range cases {
		var n int
		err := seg.Scan(nil, &Pred{Col: "v", Op: c.op, Val: c.val}, func(b *Batch) error {
			n += b.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != c.want {
			t.Fatalf("op %v %d: got %d want %d", c.op, c.val, n, c.want)
		}
	}
}

func TestSegmentUnknownPredicateColumn(t *testing.T) {
	seg := NewSegment(testSchema(), 64)
	err := seg.Scan(nil, &Pred{Col: "nope", Op: OpEQ, Val: int64(1)}, func(*Batch) error { return nil })
	if err == nil {
		t.Fatal("expected error for unknown predicate column")
	}
}

func TestSegmentPersistOpen(t *testing.T) {
	dir := t.TempDir()
	seg := NewSegment(testSchema(), 200)
	want := fillSegment(t, seg, 1234)
	path := filepath.Join(dir, "seg1.vseg")
	if err := seg.Persist(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 1234 {
		t.Fatalf("reopened rows = %d", got.Rows())
	}
	if !got.Schema().Equal(testSchema()) {
		t.Fatalf("reopened schema = %v", got.Schema())
	}
	data, err := got.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1234; i += 111 {
		w, g := want.Row(i), data.Row(i)
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("row %d col %d: got %v want %v", i, j, g[j], w[j])
			}
		}
	}
}

func TestOpenSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	seg := NewSegment(testSchema(), 100)
	fillSegment(t, seg, 300)
	path := filepath.Join(dir, "seg.vseg")
	if err := seg.Persist(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)

	// Flip a byte in the middle (block payload) → checksum failure.
	bad := append([]byte(nil), data...)
	bad[len(segMagic)+10] ^= 0xFF
	badPath := filepath.Join(dir, "bad.vseg")
	_ = os.WriteFile(badPath, bad, 0o644)
	if _, err := OpenSegment(badPath); err == nil {
		t.Fatal("corrupt block should fail to open")
	}

	// Truncate → bad end magic.
	_ = os.WriteFile(badPath, data[:len(data)-3], 0o644)
	if _, err := OpenSegment(badPath); err == nil {
		t.Fatal("truncated file should fail to open")
	}

	// Not a segment file at all.
	_ = os.WriteFile(badPath, []byte("hello world, definitely not a segment"), 0o644)
	if _, err := OpenSegment(badPath); err == nil {
		t.Fatal("bad magic should fail to open")
	}
}

func TestSegmentZoneMapSkipping(t *testing.T) {
	// With a sorted id column and block size 100, a point predicate must
	// decode exactly one of the ten sealed blocks; the scan stats make the
	// skip count directly observable.
	seg := NewSegment(Schema{{Name: "id", Type: TypeInt64}}, 100)
	b := NewBatch(seg.Schema())
	for i := 0; i < 1000; i++ {
		_ = b.AppendRow(int64(i))
	}
	_ = seg.Append(b)
	_ = seg.Seal()
	var got []int64
	var st ScanStats
	err := seg.ScanWithStats(nil, &Pred{Col: "id", Op: OpEQ, Val: int64(555)}, &st, func(b *Batch) error {
		got = append(got, b.Cols[0].Ints...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 555 {
		t.Fatalf("zone-map scan got %v", got)
	}
	if st.BlocksScanned != 1 || st.BlocksSkipped != 9 {
		t.Fatalf("zone map: scanned %d / skipped %d blocks, want 1/9", st.BlocksScanned, st.BlocksSkipped)
	}
	if st.RowsOut != 1 || st.TailRows != 0 || st.BytesRead == 0 {
		t.Fatalf("scan stats = %+v", st)
	}

	// A range predicate over the top half must skip the bottom-half blocks.
	st = ScanStats{}
	rows := 0
	err = seg.ScanWithStats(nil, &Pred{Col: "id", Op: OpGE, Val: int64(500)}, &st, func(b *Batch) error {
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 500 || st.BlocksScanned != 5 || st.BlocksSkipped != 5 {
		t.Fatalf("range scan: rows=%d scanned=%d skipped=%d", rows, st.BlocksScanned, st.BlocksSkipped)
	}
}

func TestSegmentCompressedBytes(t *testing.T) {
	seg := NewSegment(Schema{{Name: "c", Type: TypeInt64}}, 100)
	b := NewBatch(seg.Schema())
	for i := 0; i < 1000; i++ {
		_ = b.AppendRow(int64(7)) // constant → heavy RLE compression
	}
	_ = seg.Append(b)
	_ = seg.Seal()
	if seg.CompressedBytes() == 0 {
		t.Fatal("sealed segment should report nonzero bytes")
	}
	if seg.CompressedBytes() > 1000 {
		t.Fatalf("constant column should compress well, got %d bytes", seg.CompressedBytes())
	}
}

// Property: the multiset of rows out of a scan equals the rows appended,
// regardless of block size.
func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(vals []int64, blockRowsRaw uint8) bool {
		blockRows := int(blockRowsRaw%50) + 1
		seg := NewSegment(Schema{{Name: "v", Type: TypeInt64}}, blockRows)
		b := NewBatch(seg.Schema())
		for _, v := range vals {
			if err := b.AppendRow(v); err != nil {
				return false
			}
		}
		if err := seg.Append(b); err != nil {
			return false
		}
		out, err := seg.ReadAll(nil)
		if err != nil || out.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if out.Cols[0].Ints[i] != v {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: persist + open preserves all rows and order.
func TestQuickPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(vals []float64) bool {
		i++
		seg := NewSegment(Schema{{Name: "f", Type: TypeFloat64}}, 16)
		b := NewBatch(seg.Schema())
		for _, v := range vals {
			_ = b.AppendRow(v)
		}
		_ = seg.Append(b)
		path := filepath.Join(dir, "q", "seg.vseg")
		_ = os.MkdirAll(filepath.Dir(path), 0o755)
		if err := seg.Persist(path); err != nil {
			return false
		}
		re, err := OpenSegment(path)
		if err != nil {
			return false
		}
		out, err := re.ReadAll(nil)
		if err != nil || out.Len() != len(vals) {
			return false
		}
		return vectorsEqual(FloatVector(vals), out.Cols[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// intsBatch is a one-column INTEGER batch of vals.
func intsBatch(vals ...int64) *Batch {
	return &Batch{Schema: Schema{{Name: "x", Type: TypeInt64}}, Cols: []*Vector{IntVector(vals)}}
}

// readInts reads a one-column INTEGER segment whole.
func readInts(t *testing.T, seg *Segment) []int64 {
	t.Helper()
	b, err := seg.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b.Cols[0].Ints
}

// TestCloneSharesTail: a clone shares its version's tail arrays, so a commit
// appends to them in place instead of copying the tail — and the version it
// was cloned from keeps its rows and length. A second clone of that version
// finds the arrays written past its tail and copies; both stay exact.
func TestCloneSharesTail(t *testing.T) {
	base := NewSegment(Schema{{Name: "x", Type: TypeInt64}}, 64)
	if err := base.Append(intsBatch(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := base.Append(intsBatch(4)); err != nil { // leaves room past the tail
		t.Fatal(err)
	}
	a, b := base.Clone(), base.Clone()
	if err := a.Append(intsBatch(5, 6)); err != nil {
		t.Fatal(err)
	}
	if &a.tail.Cols[0].Ints[0] != &base.tail.Cols[0].Ints[0] {
		t.Fatal("the first clone's append copied the tail")
	}
	if err := b.Append(intsBatch(7)); err != nil {
		t.Fatal(err)
	}
	if &b.tail.Cols[0].Ints[0] == &base.tail.Cols[0].Ints[0] {
		t.Fatal("the second clone appended over the first one's rows")
	}
	for _, c := range []struct {
		seg  *Segment
		want []int64
	}{{base, []int64{1, 2, 3, 4}}, {a, []int64{1, 2, 3, 4, 5, 6}}, {b, []int64{1, 2, 3, 4, 7}}} {
		if got := readInts(t, c.seg); !slices.Equal(got, c.want) || c.seg.Rows() != len(c.want) {
			t.Fatalf("rows %v (%d), want %v", got, c.seg.Rows(), c.want)
		}
	}
	// Sealing leaves the rest of the rows in a tail with a claim of its own:
	// the sealed version and its clone stay exact.
	if err := a.Append(intsBatch(make([]int64, 60)...)); err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	if err := c.Append(intsBatch(9)); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 66 || c.Rows() != 67 || len(readInts(t, a)) != 66 || readInts(t, c)[66] != 9 {
		t.Fatalf("after a seal: %d and %d rows", a.Rows(), c.Rows())
	}
}

// TestCloneScanDuringAppend: scans of a version run while the next versions
// append to the tail arrays it shares (run under -race).
func TestCloneScanDuringAppend(t *testing.T) {
	cur := NewSegment(Schema{{Name: "x", Type: TypeInt64}}, 1<<20)
	if err := cur.Append(intsBatch(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	old := cur
	done := make(chan error)
	go func() {
		for i := 0; i < 200; i++ {
			b, err := old.ReadAll(nil)
			if err == nil && !slices.Equal(b.Cols[0].Ints, []int64{0, 1, 2}) {
				err = fmt.Errorf("scan %d read %v", i, b.Cols[0].Ints)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := int64(3); i < 500; i++ {
		next := cur.Clone()
		if err := next.Append(intsBatch(i)); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := readInts(t, cur); len(got) != 500 || got[499] != 499 {
		t.Fatalf("%d rows, last %d", len(got), got[len(got)-1])
	}
}
