package colstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ChunkParts is AppendChunk's chunk in pieces. For every type and encoding,
// over no rows, one row and many, alone and side by side, the parts
// concatenate to AppendChunk's bytes and decode to the batch; the bytes the
// buffer held before stay in front. A PLAIN numeric payload is the vector's
// own memory on a little-endian host — writing the vector shows through the
// part — and a copy in the buffer on any other host (the portable run).
func TestChunkPartsConcatenateToTheChunk(t *testing.T) {
	t.Run("host", testChunkParts)
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	t.Run("portable", testChunkParts)
}

func testChunkParts(t *testing.T) {
	const n = 64
	r := rand.New(rand.NewSource(3))
	ints := func(f func(i int) int64) *Vector {
		v := NewVector(TypeInt64, n)
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, f(i))
		}
		return v
	}
	floats := func(f func(i int) float64) *Vector {
		v := NewVector(TypeFloat64, n)
		for i := 0; i < n; i++ {
			v.Floats = append(v.Floats, f(i))
		}
		return v
	}
	strs := func(f func(i int) string) *Vector {
		v := NewVector(TypeString, n)
		for i := 0; i < n; i++ {
			v.Strs = append(v.Strs, f(i))
		}
		return v
	}
	bools := func(f func(i int) bool) *Vector {
		v := NewVector(TypeBool, n)
		for i := 0; i < n; i++ {
			v.Bools = append(v.Bools, f(i))
		}
		return v
	}
	special := []float64{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000005),
		math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64}
	cols := []struct {
		enc Encoding
		v   *Vector
	}{
		{EncPlain, ints(func(int) int64 { return r.Int63() - r.Int63() })},
		{EncRLE, ints(func(i int) int64 { return int64(i / 16) })},
		{EncDelta, ints(func(i int) int64 { return int64(3*i) + math.MinInt64/2 })},
		{EncPlain, floats(func(i int) float64 {
			if i < len(special) {
				return special[i]
			}
			return r.NormFloat64()
		})},
		{EncRLE, floats(func(i int) float64 { return float64(i / 8) })},
		{EncPlain, strs(func(i int) string { return fmt.Sprintf("\x00%d", i) })},
		{EncRLE, strs(func(i int) string { return []string{"", "a\x00b"}[i/32] })},
		{EncDict, strs(func(i int) string { return []string{"x", "", "zz"}[i%3] })},
		{EncPlain, bools(func(i int) bool { return i%2 == 0 })},
		{EncRLE, bools(func(i int) bool { return i < 40 })},
	}
	var all Batch
	for i, c := range cols {
		if got := BestEncoding(c.v); got != c.enc {
			t.Fatalf("column %d is %v %v, want %v", i, c.v.Type, got, c.enc)
		}
		all.Schema = append(all.Schema, ColumnSchema{Name: fmt.Sprintf("c%d", i), Type: c.v.Type})
		all.Cols = append(all.Cols, c.v)
	}
	for _, rows := range []int{n, 1, 0} {
		batches := []*Batch{all.Slice(0, rows)}
		for i := range cols {
			batches = append(batches, &Batch{Schema: all.Schema[i : i+1], Cols: []*Vector{all.Cols[i].Slice(0, rows)}})
		}
		for _, b := range batches {
			name := fmt.Sprintf("%d columns, %d rows", len(b.Cols), rows)
			want, _, err := AppendChunk(nil, nil, b)
			if err != nil {
				t.Fatal(err)
			}
			parts, buf, err := ChunkParts([]byte("kept"), b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := bytes.Join(parts, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: parts join to %d bytes that differ from the %d-byte chunk", name, len(got), len(want))
			}
			if string(buf[:4]) != "kept" {
				t.Fatalf("%s: the buffer's own bytes became %q", name, buf[:4])
			}
			dec := NewBatch(b.Schema)
			if rest, err := DecodeChunkInto(dec, got); err != nil || len(rest) != 0 || dec.Len() != rows {
				t.Fatalf("%s: joined parts decode to %d rows, %d bytes left: %v", name, dec.Len(), len(rest), err)
			}
			for j := range b.Cols {
				if !vectorsEqual(dec.Cols[j], b.Cols[j]) {
					t.Fatalf("%s: column %d decodes differently", name, j)
				}
			}
			checkPartsAlias(t, name, b, parts)
		}
	}
}

// checkPartsAlias: a part written from a PLAIN numeric column is that
// column's memory on a little-endian host, where a change to the first value
// shows through the parts; on any other host nothing shows through.
func checkPartsAlias(t *testing.T, name string, b *Batch, parts [][]byte) {
	t.Helper()
	for j, v := range b.Cols {
		if v.Len() == 0 || BestEncoding(v) != EncPlain || (v.Type != TypeInt64 && v.Type != TypeFloat64) {
			continue
		}
		before := bytes.Join(parts, nil)
		switch v.Type {
		case TypeInt64:
			v.Ints[0] = ^v.Ints[0]
			defer func() { v.Ints[0] = ^v.Ints[0] }()
		case TypeFloat64:
			v.Floats[0] = math.Float64frombits(^math.Float64bits(v.Floats[0]))
			defer func() { v.Floats[0] = math.Float64frombits(^math.Float64bits(v.Floats[0])) }()
		}
		if shows := !bytes.Equal(bytes.Join(parts, nil), before); shows != hostLittleEndian {
			t.Fatalf("%s: column %d written through its parts: %v, on a little-endian host: %v", name, j, shows, hostLittleEndian)
		}
	}
}
