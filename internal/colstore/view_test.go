package colstore

import (
	"context"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// viewSchema holds a column of every shape the in-place view meets: PLAIN
// INTEGER (big), PLAIN FLOAT (x), DELTA INTEGER (id) and RLE FLOAT (r).
var viewSchema = Schema{
	{Name: "id", Type: TypeInt64},
	{Name: "big", Type: TypeInt64},
	{Name: "x", Type: TypeFloat64},
	{Name: "r", Type: TypeFloat64},
}

func viewRows(rng *rand.Rand, base, n int) *Batch {
	b := NewBatch(viewSchema)
	for i := base; i < base+n; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Ints = append(b.Cols[1].Ints, int64(rng.Uint64()))
		b.Cols[2].Floats = append(b.Cols[2].Floats, math.Float64frombits(rng.Uint64()))
		b.Cols[3].Floats = append(b.Cols[3].Floats, float64(i/50))
	}
	return b
}

// payloadAddr is the address of a PLAIN INTEGER or FLOAT block's payload, or
// false for any other block.
func payloadAddr(data []byte) (uintptr, bool) {
	typ, enc, n, rest, ok := splitBlockHeader(data)
	if !ok || enc != EncPlain || n == 0 || typ != TypeInt64 && typ != TypeFloat64 {
		return 0, false
	}
	return reflect.ValueOf(rest).Pointer(), true
}

// vecAddr is the address of a numeric vector's first value.
func vecAddr(v *Vector) uintptr {
	if v.Type == TypeInt64 {
		return reflect.ValueOf(v.Ints).Pointer()
	}
	return reflect.ValueOf(v.Floats).Pointer()
}

// checkViews holds every PLAIN numeric payload of seg to 8-byte alignment and
// a scan of seg to want, bit for bit; with views set, each such column of a
// delivered batch must be its block's payload in place, cap equal to len,
// and without, a copy.
func checkViews(t *testing.T, label string, seg *Segment, want *Batch, views bool) {
	t.Helper()
	plain := 0
	for ci := range seg.sealed {
		for _, ref := range seg.sealed[ci] {
			if addr, ok := payloadAddr(ref.data); ok {
				plain++
				if addr%8 != 0 {
					t.Fatalf("%s: column %s holds a PLAIN payload at %#x, not 8-byte aligned", label, seg.schema[ci].Name, addr)
				}
			}
		}
	}
	if plain == 0 {
		t.Fatalf("%s: no PLAIN numeric block to check", label)
	}
	curs, err := seg.ScanCursors(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := NewBatch(seg.schema)
	for bi := 0; ; bi++ {
		b, err := curs[0].Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for ci := range seg.sealed {
			if bi >= len(seg.sealed[ci]) {
				break // the tail
			}
			addr, ok := payloadAddr(seg.sealed[ci][bi].data)
			if !ok {
				continue
			}
			v := b.Cols[ci]
			inPlace := vecAddr(v) == addr
			if inPlace != views {
				t.Fatalf("%s: block %d column %s read in place = %v, want %v", label, bi, seg.schema[ci].Name, inPlace, views)
			}
			if inPlace && cap(v.Ints)+cap(v.Floats) != v.Len() {
				t.Fatalf("%s: block %d column %s: a view of %d rows has cap %d", label, bi, seg.schema[ci].Name, v.Len(), cap(v.Ints)+cap(v.Floats))
			}
		}
		if err := got.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	curs[0].Close()
	for ci := range want.Cols {
		if !vectorsEqual(got.Cols[ci], want.Cols[ci]) {
			t.Fatalf("%s: column %s scanned differently", label, seg.schema[ci].Name)
		}
	}
}

// Every path that makes sealed blocks leaves PLAIN numeric payloads aligned,
// and a scan reads them in place: sealing a batch, the in-place appends of
// recovery's log replay (record after record into one segment), reopening a
// checkpoint image and a clone. A big-endian host, where the payload is not
// the values' memory, copies and gets the same bits.
func TestPlainBlocksAlignedOnEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sealed := NewSegment(viewSchema, 64)
	want := viewRows(rng, 0, 300)
	if err := sealed.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := sealed.Seal(); err != nil { // a short last block
		t.Fatal(err)
	}

	redo := NewSegment(viewSchema, 64)
	redoWant := NewBatch(viewSchema)
	for base := 0; base < 500; base += 7 {
		b := viewRows(rng, base, 7)
		if err := redo.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := redoWant.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "seg.vseg")
	if err := sealed.Clone().Persist(path); err != nil {
		t.Fatal(err)
	}
	image, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}

	clone := redo.Clone()
	cloneWant := NewBatch(viewSchema)
	if err := cloneWant.AppendBatch(redoWant); err != nil {
		t.Fatal(err)
	}
	more := viewRows(rng, 500, 100)
	if err := clone.Append(more); err != nil {
		t.Fatal(err)
	}
	if err := cloneWant.AppendBatch(more); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		seg  *Segment
		want *Batch
	}{{"seal", sealed, want}, {"redo", redo, redoWant}, {"image", image, want}, {"clone", clone, cloneWant}}
	for _, c := range cases {
		checkViews(t, c.name, c.seg, c.want, true)
	}
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	for _, c := range cases {
		checkViews(t, c.name+" (big-endian fallback)", c.seg, c.want, false)
	}
}

// storageCRC checksums every sealed block and the tail's rows.
func storageCRC(t *testing.T, s *Segment) uint32 {
	t.Helper()
	h := crc32.NewIEEE()
	for _, col := range s.sealed {
		for _, ref := range col {
			h.Write(ref.data)
		}
	}
	for _, v := range s.tail.Cols {
		data, err := EncodeBlock(v, EncPlain)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return h.Sum32()
}

// A delivered batch that views storage is the cursor's own batch: for the
// next block the cursor resets it and appends the kept rows into it, and the
// consumer may append to a view it holds. Neither reaches the blocks.
func TestScanViewsNeverWriteStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seg := NewSegment(viewSchema, 64)
	if err := seg.Append(viewRows(rng, 0, 64*3)); err != nil {
		t.Fatal(err)
	}
	before := storageCRC(t, seg)
	// Every block in place; then half of block 1 decoded by selection and
	// block 2 in place; then half of block 0 decoded by selection, block 1 in
	// place and all but one row of block 2 decoded by selection into the batch
	// that delivered block 1's views.
	for _, preds := range [][]Pred{nil, {{Col: "id", Op: OpGE, Val: int64(96)}}, {{Col: "id", Op: OpGE, Val: int64(32)}, {Col: "id", Op: OpNE, Val: int64(150)}}} {
		curs, err := seg.ScanCursors([]string{"big", "x"}, preds, 1)
		if err != nil {
			t.Fatal(err)
		}
		var held *Batch
		for {
			b, err := curs[0].Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if held != nil && held != b {
				t.Fatal("the cursor delivered a second batch object; the reset-and-append check needs its own")
			}
			held = b
			for _, v := range b.Cols {
				// A consumer's append to what it was handed, through a
				// header of its own: the batch stays the cursor's.
				w := *v
				if w.Type == TypeInt64 {
					w.Ints = append(w.Ints, -1)
				} else {
					w.Floats = append(w.Floats, -1)
				}
			}
		}
		curs[0].Close()
		if held == nil {
			t.Fatalf("%v: no batch delivered", preds)
		}
		if after := storageCRC(t, seg); after != before {
			t.Fatalf("%v: storage checksum %08x after the scan, %08x before", preds, after, before)
		}
	}
}
