package colstore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// wideSchema is nine columns shaped to meet every encoding a seal picks:
// DELTA (id), PLAIN INTEGER (k), RLE INTEGER (run), DICT (region), PLAIN
// VARCHAR (name), BOOLEAN (ok), PLAIN FLOAT (x0, x2) and RLE FLOAT (x1).
var wideSchema = Schema{
	{Name: "id", Type: TypeInt64}, {Name: "k", Type: TypeInt64}, {Name: "run", Type: TypeInt64},
	{Name: "region", Type: TypeString}, {Name: "name", Type: TypeString}, {Name: "ok", Type: TypeBool},
	{Name: "x0", Type: TypeFloat64}, {Name: "x1", Type: TypeFloat64}, {Name: "x2", Type: TypeFloat64},
}

// wideRows is rows [lo, lo+n) of a deterministic wideSchema table.
func wideRows(lo, n int) *Batch {
	regions := []string{"emea", "amer", "apac", "latam", "anz"}
	b := NewBatchCap(wideSchema, n)
	c := b.Cols
	for i := lo; i < lo+n; i++ {
		c[0].Ints = append(c[0].Ints, int64(i))
		c[1].Ints = append(c[1].Ints, int64(i)*7919%30011<<22)
		c[2].Ints = append(c[2].Ints, int64(i/100))
		c[3].Strs = append(c[3].Strs, regions[i*31%len(regions)])
		c[4].Strs = append(c[4].Strs, fmt.Sprintf("n%d", i*2654435761%1000003))
		c[5].Bools = append(c[5].Bools, i%3 == 0)
		c[6].Floats = append(c[6].Floats, math.Sqrt(float64(i)))
		c[7].Floats = append(c[7].Floats, float64(i/50)/4)
		c[8].Floats = append(c[8].Floats, float64(i%1024)/8)
	}
	return b
}

// blockDigest appends every sealed block of s — its bytes, rows and zone
// map — to buf.
func blockDigest(buf []byte, s *Segment) []byte {
	for i, col := range s.sealed {
		buf = binary.AppendUvarint(buf, uint64(i))
		for _, ref := range col {
			buf = binary.AppendUvarint(buf, uint64(len(ref.data)))
			buf = append(buf, ref.data...)
			buf = binary.AppendUvarint(buf, uint64(ref.rows))
			if ref.hasStats {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ref.min))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ref.max))
			}
		}
	}
	return buf
}

// TestAppendBlockBytesUnchanged pins the blocks Append seals, by hash, to
// those of the segment that copied every bulk append into its tail before
// sealing it: small appends, appends that cross a block, bulk appends onto
// a partial tail and onto an empty one, a clone whose append finds the tail
// claimed and copies, and a final Seal, at two block sizes.
func TestAppendBlockBytesUnchanged(t *testing.T) {
	const want = "24d9856df0be6374295b1073cb9379ac24494b568b4ed62abd122122aabe9dc3"
	var in []byte
	for _, tc := range []struct {
		blockRows int
		sizes     []int
	}{
		{256, []int{1, 100, 300, 1000, 256, 17, 239, 2048, 5, 700, 511, 256}},
		{DefaultBlockRows, []int{3000, 65536, 512, 512, 4096, 9000}},
	} {
		seg, at := NewSegment(wideSchema, tc.blockRows), 0
		for i, n := range tc.sizes {
			b := wideRows(at, n)
			at += n
			if i == len(tc.sizes)/2 {
				// The clone claims the shared tail first; the original's
				// append then copies it into a tail of its own.
				other := seg.Clone()
				if err := other.Append(wideRows(1<<20, 7)); err != nil {
					t.Fatal(err)
				}
				in = blockDigest(in, other)
			}
			if err := seg.Append(b); err != nil {
				t.Fatal(err)
			}
			in = blockDigest(in, seg)
		}
		if err := seg.Seal(); err != nil {
			t.Fatal(err)
		}
		in = blockDigest(in, seg)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(in)); got != want {
		t.Fatalf("sealed blocks hash %s, want %s", got, want)
	}
}

// TestBulkAppendEncodesFromTheBatch: a bulk append onto a partial tail
// copies only the rows that top the tail up to a block and the rest after
// the last whole block; every whole block in between is encoded straight
// from the batch. A 65,536-row, 9-column append into a COPY's clone
// allocates its blocks' buffers (each sized for a PLAIN block) and the
// rest's tail, 1.6x the batch's own bytes; copying the batch into a tail
// first put another batch on top, 2.6x.
func TestBulkAppendEncodesFromTheBatch(t *testing.T) {
	if raceDetector {
		t.Skip("allocation pins mean nothing under -race")
	}
	seg := NewSegment(wideSchema, 0)
	if err := seg.Append(wideRows(0, 1000)); err != nil {
		t.Fatal(err)
	}
	b := wideRows(1000, 65536)
	live := seg.Clone()
	sealed := live.CompressedBytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := live.Append(b); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	sealed = live.CompressedBytes() - sealed
	if live.Rows() != 1000+65536 || live.tail.Len() != (1000+65536)%DefaultBlockRows {
		t.Fatalf("%d rows, %d in the tail", live.Rows(), live.tail.Len())
	}
	rowBytes := 0
	for _, c := range b.Cols {
		rowBytes += 8*(len(c.Ints)+len(c.Floats)) + 16*len(c.Strs) + len(c.Bools)
	}
	if alloc > 2*rowBytes {
		t.Fatalf("the append allocates %d bytes for a batch of %d (%d of blocks sealed): more than twice the batch", alloc, rowBytes, sealed)
	}
}
