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
	bv := &Vector{Type: TypeBool, Bools: []bool{true, true, false}}
	for _, seed := range [][2]any{{iv, EncPlain}, {iv, EncRLE}, {iv, EncDelta}, {fv, EncPlain}, {sv, EncDict},
		{fv, EncRLE}, {sv, EncRLE}, {bv, EncRLE}, {bv, EncPlain}} {
		if blk, err := EncodeBlock(seed[0].(*Vector), seed[1].(Encoding)); err == nil {
			f.Add(blk)
		}
	}
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{byte(TypeString), byte(EncDict), 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{byte(TypeFloat64), byte(EncPlain), 0x80, 0x80, 0x80, 0x80, 0x08, 1, 2, 3, 4, 5, 6, 7, 8})
	// DELTA blocks of 1-, 2-, 3- and 10-byte deltas, one cut at its last
	// byte, and the varints binary.Varint reads or rejects at the edges: a
	// non-canonical zero, an 11th byte, a 10th byte above 1 and one of 1.
	for _, step := range []int64{1, -100, 100_000, math.MaxInt64} {
		xs := []int64{0, step, 2 * step, step, 0}
		if blk, err := EncodeBlock(IntVector(xs), EncDelta); err == nil {
			f.Add(blk)
			f.Add(blk[:len(blk)-1])
		}
	}
	// RLE and DICT blocks the references reject: a run of 0, a run past the
	// rows left, a string run cut short, a dictionary claiming more entries
	// than bytes, and a code past the dictionary.
	f.Add([]byte{byte(TypeInt64), byte(EncRLE), 2, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{byte(TypeBool), byte(EncRLE), 2, 3, 1})
	f.Add([]byte{byte(TypeString), byte(EncRLE), 2, 2, 5, 'a', 'b'})
	f.Add([]byte{byte(TypeString), byte(EncDict), 1, 9, 1, 'a', 0})
	f.Add([]byte{byte(TypeString), byte(EncDict), 2, 1, 1, 'a', 0, 1})
	delta := []byte{byte(TypeInt64), byte(EncDelta), 1}
	f.Add(append(delta, 0x80, 0x00))
	f.Add(append(delta, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00))
	f.Add(append(delta, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02))
	f.Add(append(delta, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlainView(t, data)
		checkReferenceDecode(t, data)
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

// checkReferenceDecode holds DecodeBlock and DecodeBlockSel on a DELTA, RLE
// or DICT block to that encoding's reference below, written from the layout
// alone: both accept exactly what it accepts, with the values it reads, and
// reject the rest with one error between them — for DELTA, the one
// truncation error. The selective decode is held to the reference, not to
// the whole decode, since the two share their payload walk.
func checkReferenceDecode(t *testing.T, data []byte) {
	if len(data) < 3 || Type(data[0]) < TypeInt64 || Type(data[0]) > TypeBool {
		return
	}
	count, m := binary.Uvarint(data[2:])
	if m <= 0 || count > MaxBlockRows {
		return
	}
	typ, enc, rest, n := Type(data[0]), Encoding(data[1]), data[2+m:], int(count)
	var want *Vector
	ok := false
	switch {
	case enc == EncDelta && typ == TypeInt64:
		var xs []int64
		xs, ok = refDeltaValues(rest, n)
		want = IntVector(xs)
	case enc == EncRLE:
		want, ok = refRLEValues(typ, rest, n)
	case enc == EncDict && typ == TypeString:
		want, ok = refDictValues(rest, n)
	default:
		return
	}
	var sel []int // every third row, the first twice
	for i := 0; ok && i < want.Len(); i += 3 {
		sel = append(sel, i)
	}
	if len(sel) > 0 {
		sel = append([]int{0}, sel...)
	}
	got, err := DecodeBlock(data)
	gotSel := NewVector(typ, 0)
	selErr := DecodeBlockSel(gotSel, data, sel)
	switch {
	case !ok && (err == nil || selErr == nil):
		t.Fatalf("%v block %x: the reference rejects it, DecodeBlock err %v, DecodeBlockSel err %v", enc, data, err, selErr)
	case !ok && selErr.Error() != err.Error():
		t.Fatalf("%v block %x: errors %q and %q", enc, data, err, selErr)
	case !ok && enc == EncDelta && err.Error() != "colstore: truncated delta block":
		t.Fatalf("block %x: error %q", data, err)
	case ok && (err != nil || selErr != nil):
		t.Fatalf("%v block %x: the reference reads it, DecodeBlock err %v, DecodeBlockSel err %v", enc, data, err, selErr)
	case ok && !vectorsEqual(got, want):
		t.Fatalf("%v block %x: decoded %d rows unlike the reference's %d", enc, data, got.Len(), want.Len())
	case ok && !vectorsEqual(gotSel, want.Gather(sel)):
		t.Fatalf("%v block %x: selected rows %v unlike the reference's", enc, data, sel)
	}
}

// refRLEValues reads an RLE payload of n rows of a typ column one pair at a
// time: a uvarint run length, from 1 to the rows left, then the value — 8
// little-endian bytes for a number, a uvarint length and that many bytes for
// a string, one byte for a bool. ok is false where a pair is cut short.
func refRLEValues(typ Type, rest []byte, n int) (v *Vector, ok bool) {
	v = NewVector(typ, 0)
	for v.Len() < n {
		run, m := binary.Uvarint(rest)
		if m <= 0 || run == 0 || run > uint64(n-v.Len()) {
			return nil, false
		}
		rest = rest[m:]
		var val any
		switch typ {
		case TypeInt64, TypeFloat64:
			if len(rest) < 8 {
				return nil, false
			}
			val = int64(binary.LittleEndian.Uint64(rest))
			if typ == TypeFloat64 {
				val = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			}
			rest = rest[8:]
		case TypeString:
			l, m := binary.Uvarint(rest)
			if m <= 0 || l > uint64(len(rest)-m) {
				return nil, false
			}
			val, rest = string(rest[m:m+int(l)]), rest[m+int(l):]
		case TypeBool:
			if len(rest) == 0 {
				return nil, false
			}
			val, rest = rest[0] != 0, rest[1:]
		}
		for ; run > 0; run-- {
			if v.AppendValue(val) != nil {
				return nil, false
			}
		}
	}
	return v, true
}

// refDictValues reads a DICT payload of n rows: a uvarint entry count, each
// entry a uvarint length and that many bytes, then one uvarint code a row,
// below the entry count. ok is false where the payload is cut short or a
// code names no entry.
func refDictValues(rest []byte, n int) (v *Vector, ok bool) {
	dn, m := binary.Uvarint(rest)
	if m <= 0 || dn > uint64(len(rest)) {
		return nil, false
	}
	rest = rest[m:]
	var dict []string
	for ; dn > 0; dn-- {
		l, m := binary.Uvarint(rest)
		if m <= 0 || l > uint64(len(rest)-m) {
			return nil, false
		}
		dict, rest = append(dict, string(rest[m:m+int(l)])), rest[m+int(l):]
	}
	v = NewVector(TypeString, 0)
	for i := 0; i < n; i++ {
		c, m := binary.Uvarint(rest)
		if m <= 0 || c >= uint64(len(dict)) {
			return nil, false
		}
		v.Strs, rest = append(v.Strs, dict[c]), rest[m:]
	}
	return v, true
}

// refDeltaValues reads a DELTA payload of n rows one binary.Varint call at a
// time, as the decoder did before its loop was written inline; ok is false
// where that rejects the payload.
func refDeltaValues(rest []byte, n int) (vals []int64, ok bool) {
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, m := binary.Varint(rest)
		if m <= 0 {
			return nil, false
		}
		rest = rest[m:]
		prev += d
		vals = append(vals, prev)
	}
	return vals, true
}
