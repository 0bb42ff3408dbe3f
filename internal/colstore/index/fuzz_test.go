package index

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fuzzValue maps two bytes onto a value of kind. Numbers cluster around 0,
// ±2^53 and the top of int64, where INTEGER/FLOAT widening maps several
// integers onto one float; floats also take NaN, ±0 and ±Inf.
func fuzzValue(kind, a, b byte) any {
	centers := [...]int64{0, 1 << 53, -(1 << 53), math.MaxInt64 - 200}
	c, off := centers[a%4], int64(int8(b))
	switch kind {
	case kindInt:
		return c + off
	case kindFloat:
		switch a >> 5 {
		case 7:
			return [...]float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}[b%5]
		case 6:
			return float64(c) + float64(off)/4
		}
		return float64(c + off)
	case kindString:
		return strings.Repeat("b", int(a%3)) + string(rune('a'+b%6))
	}
	return b&1 == 1
}

// probeValue is a probe of the tree's kind, or of either numeric kind when
// the tree is numeric (numeric selects which).
func probeValue(kind byte, numeric bool, a, b byte) any {
	if kind == kindInt || kind == kindFloat {
		kind = kindInt
		if numeric {
			kind = kindFloat
		}
	}
	return fuzzValue(kind, a, b)
}

// FuzzIndexLookup checks every probe of a tree — built by Builder, by a
// sequence of Inserts and by DecodeTree(Encode()) — bit for bit against
// refLookup and refRange, the filtered scan. The keys are n values of one
// kind drawn from seed within spread of a few centres; each probe takes five
// bytes: a selector (operator or range, value kinds), then two values.
func FuzzIndexLookup(f *testing.F) {
	// kind counts from kindInt: 0 INTEGER, 1 FLOAT, 2 VARCHAR, 3 BOOLEAN.
	f.Add(uint8(0), int64(26), uint16(188), uint8(9), []byte("X7000")) // >= 2^63 as a FLOAT
	f.Add(uint8(0), int64(2), uint16(900), uint8(127), []byte{24, 1, 0, 0, 0, 29, 1, 0, 1, 64, 4, 5, 250, 0, 0})
	f.Add(uint8(1), int64(3), uint16(700), uint8(20), []byte{0, 224, 0, 0, 0, 8, 224, 1, 0, 0, 61, 200, 3, 201, 9})
	f.Add(uint8(2), int64(4), uint16(300), uint8(5), []byte{0, 1, 2, 0, 0, 5, 0, 0, 2, 3})
	f.Add(uint8(3), int64(5), uint16(50), uint8(1), []byte{0, 0, 1, 0, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, n uint16, spread uint8, probes []byte) {
		kind = kindInt + kind%4
		rng := rand.New(rand.NewSource(seed))
		s := 1 + int(spread%127)
		keys := make([]any, int(n%2000))
		for i := range keys {
			keys[i] = fuzzValue(kind, byte(rng.Intn(256)), byte(rng.Intn(2*s+1)-s))
		}
		trees := buildThreeWays(t, kind, keys, rng)
		for len(probes) >= 5 {
			sel, p := probes[0], probes[1:5]
			probes = probes[5:]
			v1 := probeValue(kind, sel&8 != 0, p[0], p[1])
			if sel%6 < 5 {
				op := [...]Op{OpEQ, OpLT, OpLE, OpGT, OpGE}[sel%6]
				want := refLookup(keys, op, v1)
				for _, tr := range trees {
					got, handled := tr.Lookup(op, v1)
					if !handled || !sameRows(got, want) {
						t.Fatalf("%s col %d %v (handled %v):\n got %v\nwant %v", tr.how, op, v1, handled, got, want)
					}
				}
				continue
			}
			loOp, hiOp := OpGT, OpLT
			if sel&16 != 0 {
				loOp = OpGE
			}
			if sel&32 != 0 {
				hiOp = OpLE
			}
			v2 := probeValue(kind, sel&64 != 0, p[2], p[3])
			want := refRange(keys, loOp, v1, hiOp, v2)
			for _, tr := range trees {
				got, handled := tr.LookupRange(loOp, v1, hiOp, v2)
				if isNaN(v1) || isNaN(v2) {
					if handled {
						t.Fatalf("%s: range %v..%v with a NaN bound was served", tr.how, v1, v2)
					}
					continue
				}
				if !handled || !sameRows(got, want) {
					t.Fatalf("%s range %v %d / %v %d (handled %v):\n got %v\nwant %v", tr.how, v1, loOp, v2, hiOp, handled, got, want)
				}
			}
		}
	})
}

type builtTree struct {
	*Tree
	how string
}

// buildThreeWays builds keys (rows 0..n-1) with a Builder fed unboxed, by
// Inserts from an empty tree in rng-sized batches, and by decoding the first
// tree's encoding; all three must encode to the same bytes.
func buildThreeWays(t *testing.T, kind byte, keys []any, rng *rand.Rand) []builtTree {
	t.Helper()
	var b Builder
	switch kind {
	case kindInt:
		AddKeys(&b, typed[int64](keys), 0)
	case kindFloat:
		AddKeys(&b, typed[float64](keys), 0)
	case kindString:
		AddKeys(&b, typed[string](keys), 0)
	default:
		AddKeys(&b, typed[bool](keys), 0)
	}
	bulk, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ins, err := (&Builder{}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); {
		j := min(len(keys), i+1+rng.Intn(300))
		if j == i+1 {
			ins, err = ins.Insert(keys[i], uint32(i))
		} else {
			switch kind {
			case kindInt:
				ins, err = InsertKeys(ins, typed[int64](keys[i:j]), uint32(i))
			case kindFloat:
				ins, err = InsertKeys(ins, typed[float64](keys[i:j]), uint32(i))
			case kindString:
				ins, err = InsertKeys(ins, typed[string](keys[i:j]), uint32(i))
			default:
				ins, err = InsertKeys(ins, typed[bool](keys[i:j]), uint32(i))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		i = j
	}
	enc := bulk.Encode()
	dec, err := DecodeTree(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{ins, dec} {
		if got := tr.Encode(); !bytes.Equal(got, enc) {
			t.Fatalf("encodings differ:\n%x\n%x", got, enc)
		}
		if tr.Rows() != len(keys) || tr.DistinctKeys() != bulk.DistinctKeys() {
			t.Fatalf("shape: %d rows %d keys, want %d rows %d keys", tr.Rows(), tr.DistinctKeys(), len(keys), bulk.DistinctKeys())
		}
	}
	return []builtTree{{bulk, "built"}, {ins, "inserted"}, {dec, "decoded"}}
}

func typed[K Key](keys []any) []K {
	out := make([]K, len(keys))
	for i, k := range keys {
		out[i] = k.(K)
	}
	return out
}

// sameRows compares row lists bit for bit, nil and empty alike.
func sameRows(got, want []uint32) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}
