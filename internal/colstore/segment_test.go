package colstore

import (
	"context"
	"fmt"
	"math"
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
	got, err := OpenSegment(path, 0)
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
	if _, err := OpenSegment(badPath, 0); err == nil {
		t.Fatal("corrupt block should fail to open")
	}

	// Truncate → bad end magic.
	_ = os.WriteFile(badPath, data[:len(data)-3], 0o644)
	if _, err := OpenSegment(badPath, 0); err == nil {
		t.Fatal("truncated file should fail to open")
	}

	// Not a segment file at all.
	_ = os.WriteFile(badPath, []byte("hello world, definitely not a segment"), 0o644)
	if _, err := OpenSegment(badPath, 0); err == nil {
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

	// INTEGER stats are float64(x): a block of 2^53+1 records max 2^53 and
	// one of -2^53-1 min -2^53, so a literal of ±2^53 must not rule either
	// out.
	big := NewSegment(Schema{{Name: "k", Type: TypeInt64}}, 4)
	b = NewBatch(big.Schema())
	for _, x := range []int64{1<<53 + 1, -1<<53 - 1} {
		for i := 0; i < 4; i++ {
			_ = b.AppendRow(x)
		}
	}
	_ = big.Append(b)
	for _, pred := range []*Pred{{Col: "k", Op: OpGT, Val: int64(1 << 53)}, {Col: "k", Op: OpLT, Val: int64(-1 << 53)}} {
		st = ScanStats{}
		rows = 0
		if err := big.ScanWithStats(nil, pred, &st, func(b *Batch) error { rows += b.Len(); return nil }); err != nil {
			t.Fatal(err)
		}
		if rows != 4 || st.BlocksSkipped != 0 {
			t.Fatalf("%v: rows=%d stats %+v, want 4 rows, no block skipped", pred, rows, st)
		}
	}
}

// TestScanStatsCountAllMatch: over ten blocks of ascending ids, id < 550
// holds for every row of the first five by their zone maps, is evaluated on
// the sixth and rules out the last four. A decided block is scanned, counted
// all-match, and reads only the projected columns; a conjunction counts a
// block all-match only when the zone maps decide each of its predicates.
func TestScanStatsCountAllMatch(t *testing.T) {
	schema := Schema{{Name: "id", Type: TypeInt64}, {Name: "x", Type: TypeFloat64}}
	seg := NewSegment(schema, 100)
	b := NewBatch(schema)
	for i := 0; i < 1000; i++ {
		_ = b.AppendRow(int64(i), float64(i%7))
	}
	_ = seg.Append(b)
	xBytes, idBytes := len(seg.sealed[1][0].data), len(seg.sealed[0][5].data)
	before := mBlocksAllMatch.Value()
	for _, tc := range []struct {
		preds     []Pred
		rows, all int
		bytes     int
	}{
		{[]Pred{{Col: "id", Op: OpLT, Val: int64(550)}}, 550, 5, 6*xBytes + idBytes},
		{[]Pred{{Col: "id", Op: OpLT, Val: int64(550)}, {Col: "x", Op: OpGE, Val: int64(0)}}, 550, 5, 6*xBytes + idBytes},
		{[]Pred{{Col: "id", Op: OpLT, Val: int64(550)}, {Col: "x", Op: OpLT, Val: int64(3)}}, 237, 0, 0},
	} {
		var st ScanStats
		rows := 0
		if err := pushScan(context.Background(), seg, []string{"x"}, tc.preds, &st, func(b *Batch) error { rows += b.Len(); return nil }); err != nil {
			t.Fatal(err)
		}
		if rows != tc.rows || st.BlocksScanned != 6 || st.BlocksSkipped != 4 || st.BlocksAllMatch != tc.all {
			t.Fatalf("%v: rows=%d stats %+v, want %d rows, 6 scanned / 4 skipped / %d all-match", tc.preds, rows, st, tc.rows, tc.all)
		}
		if tc.all > 0 && st.BytesRead != tc.bytes {
			t.Fatalf("%v: read %d bytes, want %d: a decided block reads no predicate column", tc.preds, st.BytesRead, tc.bytes)
		}
	}
	if got := mBlocksAllMatch.Value() - before; got < 10 {
		t.Fatalf(`colstore_scan_blocks_total{result="all_match"} rose by %d, want at least 10`, got)
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
		re, err := OpenSegment(path, 0)
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

// tailCap is the rows the tail's arrays hold room for, the least over its
// columns.
func tailCap(s *Segment) int {
	c := math.MaxInt
	for _, v := range s.tail.Cols {
		c = min(c, cap(v.Ints)+cap(v.Floats)+cap(v.Strs)+cap(v.Bools))
	}
	return c
}

// idxBatch is n rows of an INTEGER and a FLOAT column from base on.
func idxBatch(base, n int) *Batch {
	b := NewBatchCap(Schema{{Name: "id", Type: TypeInt64}, {Name: "x", Type: TypeFloat64}}, n)
	for i := base; i < base+n; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Floats = append(b.Cols[1].Floats, math.Sqrt(float64(i)))
	}
	return b
}

// TestTailAllocatedOncePerBlock: once appends smaller than a block have
// sealed one, the tail left behind has the block's room, so 512-row appends
// fill the next block in place. An append into the room allocates nothing, a
// block of them allocates what one bulk append of the block does (which
// encodes the block straight from its batch) plus the next tail's room, one
// array a column, and the tail's arrays change once a block.
func TestTailAllocatedOncePerBlock(t *testing.T) {
	whole := idxBatch(0, 4096)
	var small [8]*Batch // whole's rows, so both ways seal the same blocks
	for i := range small {
		small[i] = whole.Slice(512*i, 512*(i+1))
	}
	fill := func(seg *Segment) {
		for _, b := range small {
			if err := seg.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	steady := func() *Segment {
		seg := NewSegment(whole.Schema, 4096)
		fill(seg)
		if got := tailCap(seg); got != 4096 {
			t.Fatalf("after a block sealed the tail holds room for %d rows, want 4096", got)
		}
		return seg
	}
	bySmall, byWhole, room, arrays := steady(), steady(), steady(), steady()
	eight := testing.AllocsPerRun(50, func() { fill(bySmall) })
	one := testing.AllocsPerRun(50, func() {
		if err := byWhole.Append(whole); err != nil {
			t.Fatal(err)
		}
	})
	if room := float64(len(whole.Cols)); eight > one+room {
		t.Fatalf("a block of 512-row appends allocates %v times, one 4,096-row append %v and a tail's room %v: the tail regrew", eight, one, room)
	}
	if bySmall.Rows() != byWhole.Rows() || bySmall.Blocks() != byWhole.Blocks() {
		t.Fatalf("%d rows in %d blocks against %d in %d", bySmall.Rows(), bySmall.Blocks(), byWhole.Rows(), byWhole.Blocks())
	}
	if n := testing.AllocsPerRun(3, func() { // 4 appends: 2,048 rows, no seal
		if err := room.Append(small[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("an append into the tail's room allocates %v times", n)
	}
	tails, last := 0, &arrays.tail.Cols[0].Ints[:1][0]
	for block := 0; block < 4; block++ {
		for _, b := range small {
			if err := arrays.Append(b); err != nil {
				t.Fatal(err)
			}
			if p := &arrays.tail.Cols[0].Ints[:1][0]; p != last {
				tails, last = tails+1, p
			}
		}
	}
	if tails != 4 {
		t.Fatalf("4 blocks of 512-row appends made %d tails", tails)
	}
}

// TestTailGrowsToAtMostOneBlock: a tail regrows to twice its rows but never
// past a block, so a segment that never filled a block holds no more room
// than the doubling alone gave it, and after any Append, small or bulk, no
// tail holds more than a block — Seal leaves none at all.
func TestTailGrowsToAtMostOneBlock(t *testing.T) {
	const blockRows = 4096
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		seg := NewSegment(idxBatch(0, 0).Schema, blockRows)
		doubled := 0 // the room doubling alone gives: twice the rows at each regrowth
		for rows := 0; rows < 3*blockRows; {
			n := 1 + r.Intn(900)
			if r.Intn(10) == 0 {
				n = blockRows + r.Intn(2*blockRows) // a bulk append
			}
			if err := seg.Append(idxBatch(rows, n)); err != nil {
				t.Fatal(err)
			}
			rows += n
			if rows > doubled {
				doubled = 2 * rows
			}
			got := tailCap(seg)
			if got > blockRows || seg.Blocks() == 0 && got > doubled {
				t.Fatalf("trial %d, %d rows: tail room %d (doubling %d, block %d)", trial, rows, got, doubled, blockRows)
			}
		}
		if err := seg.Seal(); err != nil {
			t.Fatal(err)
		}
		if got := tailCap(seg); got != 0 {
			t.Fatalf("trial %d: Seal left a tail with room for %d rows", trial, got)
		}
	}
}

// TestCloneLosingClaimCopiesOnWrite: after small appends seal a block the
// tail has the block's room, which clones share. The first to append claims it and writes in
// place; a second clone of the same version finds the room claimed and
// copies, into a tail of at most a block, and every version stays exact.
func TestCloneLosingClaimCopiesOnWrite(t *testing.T) {
	base := NewSegment(Schema{{Name: "x", Type: TypeInt64}}, 64)
	for i := 0; i < 10; i++ { // a block and 6 tail rows
		if err := base.Append(intsBatch(make([]int64, 7)...)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tailCap(base); got != 64 {
		t.Fatalf("tail room %d after a seal, want 64", got)
	}
	a, b := base.Clone(), base.Clone()
	if err := a.Append(intsBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	if &a.tail.Cols[0].Ints[0] != &base.tail.Cols[0].Ints[0] {
		t.Fatal("the winning clone copied the tail")
	}
	if err := b.Append(intsBatch(9)); err != nil {
		t.Fatal(err)
	}
	if &b.tail.Cols[0].Ints[0] == &base.tail.Cols[0].Ints[0] || tailCap(b) > 64 {
		t.Fatalf("the losing clone wrote into the shared tail (room %d)", tailCap(b))
	}
	for _, c := range []struct {
		seg  *Segment
		want []int64
	}{{base, nil}, {a, []int64{1, 2}}, {b, []int64{9}}} {
		got := readInts(t, c.seg)
		if want := append(make([]int64, 70), c.want...); !slices.Equal(got, want) || c.seg.Rows() != len(want) {
			t.Fatalf("rows %v (%d), want 70 zeros then %v", got[70:], c.seg.Rows(), c.want)
		}
	}
}
