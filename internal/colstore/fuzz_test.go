package colstore

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// vectorFromBytes deterministically builds a vector of the given type from
// arbitrary fuzz bytes, so the fuzzer explores value shapes (runs, NaNs,
// empty strings, sign flips) through a stable mapping.
func vectorFromBytes(typ Type, data []byte) *Vector {
	v := NewVector(typ, 0)
	for len(data) > 0 {
		switch typ {
		case TypeInt64:
			var u uint64
			for i := 0; i < 8 && len(data) > 0; i++ {
				u = u<<8 | uint64(data[0])
				data = data[1:]
			}
			v.Ints = append(v.Ints, int64(u))
		case TypeFloat64:
			var u uint64
			for i := 0; i < 8 && len(data) > 0; i++ {
				u = u<<8 | uint64(data[0])
				data = data[1:]
			}
			v.Floats = append(v.Floats, math.Float64frombits(u))
		case TypeString:
			l := int(data[0]) % 9
			data = data[1:]
			if l > len(data) {
				l = len(data)
			}
			v.Strs = append(v.Strs, string(data[:l]))
			data = data[l:]
		case TypeBool:
			v.Bools = append(v.Bools, data[0]&1 == 1)
			data = data[1:]
		default:
			return v
		}
	}
	return v
}

// FuzzEncodingRoundTrip checks decode(encode(v)) == v bit-for-bit, for every
// type and every encoding valid for that type, including BestEncoding's pick.
func FuzzEncodingRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{0xff, 0xf8, 0, 0, 0, 0, 0, 1}) // NaN payload
	f.Add(uint8(2), []byte{3, 'a', 'b', 'c', 0, 3, 'a', 'b', 'c'})
	f.Add(uint8(3), []byte{0, 1, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, typSel uint8, data []byte) {
		typ := []Type{TypeInt64, TypeFloat64, TypeString, TypeBool}[typSel%4]
		v := vectorFromBytes(typ, data)
		encs := []Encoding{EncPlain, EncRLE, BestEncoding(v)}
		if typ == TypeInt64 {
			encs = append(encs, EncDelta)
		}
		if typ == TypeString {
			encs = append(encs, EncDict)
		}
		for _, enc := range encs {
			if v.Len() > MaxBlockRows {
				t.Skip("larger than any real block")
			}
			blk, err := EncodeBlock(v, enc)
			if err != nil {
				t.Fatalf("encode %v/%v: %v", typ, enc, err)
			}
			got, err := DecodeBlock(blk)
			if err != nil {
				t.Fatalf("decode %v/%v: %v", typ, enc, err)
			}
			if !vectorsEqual(v, got) {
				t.Fatalf("round trip %v/%v: %d rows in, %d out", typ, enc, v.Len(), got.Len())
			}
		}
	})
}

// FuzzDecodeBlock throws arbitrary bytes at the decoder: it must return an
// error or a well-formed vector, never panic or claim more rows than decoded.
func FuzzDecodeBlock(f *testing.F) {
	// Seed with valid blocks so the fuzzer starts from the interesting region.
	iv := &Vector{Type: TypeInt64, Ints: []int64{1, 1, 1, 5, -9}}
	fv := &Vector{Type: TypeFloat64, Floats: []float64{math.NaN(), math.Copysign(0, -1), 2.5}}
	sv := &Vector{Type: TypeString, Strs: []string{"x", "x", "yy", ""}}
	for _, seed := range [][2]any{{iv, EncPlain}, {iv, EncRLE}, {iv, EncDelta}, {fv, EncPlain}, {sv, EncDict}} {
		if blk, err := EncodeBlock(seed[0].(*Vector), seed[1].(Encoding)); err == nil {
			f.Add(blk)
		}
	}
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{byte(TypeString), byte(EncDict), 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{byte(TypeFloat64), byte(EncPlain), 0x80, 0x80, 0x80, 0x80, 0x08, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlainView(t, data)
		v, err := DecodeBlock(data)
		if err != nil {
			return
		}
		if v == nil {
			t.Fatal("nil vector with nil error")
		}
		// The header's row count must match the decoded length.
		count, m := binary.Uvarint(data[2:])
		if m <= 0 || int(count) != v.Len() {
			t.Fatalf("header claims %d rows, decoded %d", count, v.Len())
		}
	})
}

// checkPlainView places data as a sealed block is placed, then one byte off,
// and holds plainView to DecodeBlockInto for both numeric types: a view must
// be the decoded values bit for bit, over the input's own payload, with cap
// equal to len; a PLAIN block of the type that decodes, its payload aligned,
// must be viewed; a misaligned payload, or input the decoder rejects, never.
func checkPlainView(t *testing.T, data []byte) {
	rows, header := 0, 0
	if len(data) > 2 {
		if count, m := binary.Uvarint(data[2:]); m > 0 && count <= MaxBlockRows {
			rows, header = int(count), 2+m
		}
	}
	for _, typ := range []Type{TypeInt64, TypeFloat64} {
		for _, skew := range []int{0, 1} {
			blk := append(alignedBlockBuf(rows, skew+len(data))[:skew], data...)[skew:]
			payload := reflect.ValueOf(blk).Pointer() + uintptr(header)
			aligned := header > 0 && payload%8 == 0
			view := Vector{Type: typ}
			viewed := plainView(&view, blk)
			want := NewVector(typ, 0)
			err := DecodeBlockInto(want, blk)
			switch {
			case viewed && err != nil:
				t.Fatalf("%v skew %d: viewed a block the decoder rejects: %v", typ, skew, err)
			case viewed && !aligned:
				t.Fatalf("%v skew %d: viewed a misaligned payload", typ, skew)
			case viewed && (vecAddr(&view) != payload || cap(view.Ints)+cap(view.Floats) != view.Len()):
				t.Fatalf("%v skew %d: the view is not the block's payload in place", typ, skew)
			case viewed && !vectorsEqual(&view, want):
				t.Fatalf("%v skew %d: the view differs from the decoded block", typ, skew)
			case !viewed && aligned && err == nil && hostLittleEndian && rows > 0 && Encoding(data[1]) == EncPlain:
				t.Fatalf("%v skew %d: an aligned PLAIN block of %d rows was not viewed", typ, skew, rows)
			}
		}
	}
}
