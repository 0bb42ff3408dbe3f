package colstore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func vectorsEqual(a, b *Vector) bool {
	if a.Type != b.Type || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		switch a.Type {
		case TypeFloat64:
			if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
				return false
			}
		default:
			if a.Value(i) != b.Value(i) {
				return false
			}
		}
	}
	return true
}

func TestRoundTripAllEncodings(t *testing.T) {
	vectors := map[string]*Vector{
		"ints":    IntVector([]int64{1, 1, 1, 5, 5, -3, math.MaxInt64, math.MinInt64}),
		"floats":  FloatVector([]float64{1.5, 1.5, -0.25, math.Inf(1), math.Inf(-1), 0}),
		"strings": StringVector([]string{"a", "a", "bb", "", "ccc", "a"}),
		"bools":   BoolVector([]bool{true, true, false, true}),
		"empty":   NewVector(TypeInt64, 0),
	}
	for name, v := range vectors {
		encs := []Encoding{EncPlain, EncRLE}
		if v.Type == TypeInt64 {
			encs = append(encs, EncDelta)
		}
		if v.Type == TypeString {
			encs = append(encs, EncDict)
		}
		for _, enc := range encs {
			data, err := EncodeBlock(v, enc)
			if err != nil {
				t.Fatalf("%s/%v encode: %v", name, enc, err)
			}
			got, err := DecodeBlock(data)
			if err != nil {
				t.Fatalf("%s/%v decode: %v", name, enc, err)
			}
			if !vectorsEqual(v, got) {
				t.Fatalf("%s/%v round trip mismatch", name, enc)
			}
		}
	}
}

func TestEncodingTypeRestrictions(t *testing.T) {
	if _, err := EncodeBlock(FloatVector([]float64{1}), EncDelta); err == nil {
		t.Fatal("DELTA on floats should fail")
	}
	if _, err := EncodeBlock(IntVector([]int64{1}), EncDict); err == nil {
		t.Fatal("DICT on ints should fail")
	}
}

func TestBestEncodingHeuristics(t *testing.T) {
	// Long runs → RLE.
	runs := make([]int64, 1000)
	for i := range runs {
		runs[i] = int64(i / 100)
	}
	if got := BestEncoding(IntVector(runs)); got != EncRLE {
		t.Fatalf("runs: got %v want RLE", got)
	}
	// Sorted-ish ints → DELTA.
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i * 3)
	}
	if got := BestEncoding(IntVector(sorted)); got != EncDelta {
		t.Fatalf("sorted: got %v want DELTA", got)
	}
	// Low-cardinality strings → DICT.
	strs := make([]string, 1000)
	for i := range strs {
		strs[i] = []string{"x", "y", "z"}[i%3]
	}
	if got := BestEncoding(StringVector(strs)); got != EncRLE && got != EncDict {
		t.Fatalf("low-card strings: got %v", got)
	}
	// Random floats → PLAIN.
	r := rand.New(rand.NewSource(1))
	fs := make([]float64, 1000)
	for i := range fs {
		fs[i] = r.NormFloat64()
	}
	if got := BestEncoding(FloatVector(fs)); got != EncPlain {
		t.Fatalf("random floats: got %v want PLAIN", got)
	}
}

func TestBestEncodingCompresses(t *testing.T) {
	runs := make([]int64, 10000)
	for i := range runs {
		runs[i] = int64(i / 1000)
	}
	v := IntVector(runs)
	plain, _ := EncodeBlock(v, EncPlain)
	best, _ := EncodeBlock(v, BestEncoding(v))
	if len(best)*10 > len(plain) {
		t.Fatalf("RLE should compress >10x here: plain=%d best=%d", len(plain), len(best))
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeBlock([]byte{}); err == nil {
		t.Fatal("empty block should fail")
	}
	if _, err := DecodeBlock([]byte{byte(TypeInt64), 99, 1}); err == nil {
		t.Fatal("unknown encoding should fail")
	}
	good, _ := EncodeBlock(IntVector([]int64{1, 2, 3}), EncPlain)
	if _, err := DecodeBlock(good[:len(good)-4]); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

// A PLAIN numeric payload is the values' little-endian words, moved as
// bytes: every bit pattern crosses — NaN payloads, both zeros, both
// infinities, the int64 extremes — the bytes are what the per-value loop
// wrote, decoding appends after whatever the vector holds, and a payload
// short by any number of bytes is an error, never a shorter vector. The
// per-value loops a big-endian host falls back to are held to the same.
func TestPlainNumericBlocksMoveAsBytes(t *testing.T) {
	t.Run("host", testPlainNumericBlocks)
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	t.Run("portable", testPlainNumericBlocks)
}

func testPlainNumericBlocks(t *testing.T) {
	floats := []float64{
		math.Float64frombits(0x7ff8deadbeef0001), math.Float64frombits(0xfff0000000000001), math.NaN(),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5,
	}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 1 << 53, -(1 << 53)}
	for name, v := range map[string]*Vector{
		"floats": FloatVector(floats), "ints": IntVector(ints),
		"no floats": NewVector(TypeFloat64, 0), "no ints": NewVector(TypeInt64, 0),
	} {
		data, err := EncodeBlock(v, EncPlain)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := v.Len()
		header := len(data) - 8*n
		if header != 3 {
			t.Fatalf("%s: %d payload bytes for %d values", name, len(data)-3, n)
		}
		for i := 0; i < n; i++ {
			want := uint64(0)
			if v.Type == TypeFloat64 {
				want = math.Float64bits(v.Floats[i])
			} else {
				want = uint64(v.Ints[i])
			}
			if got := binary.LittleEndian.Uint64(data[header+8*i:]); got != want {
				t.Fatalf("%s: value %d is on the wire as %#x, want %#x", name, i, got, want)
			}
		}
		// Decode behind rows the vector already holds, as a chunk run does.
		into := NewVector(v.Type, 0)
		for rep := 0; rep < 2; rep++ {
			if err := DecodeBlockInto(into, data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if into.Len() != 2*n || !vectorsEqual(into.Slice(0, n), v) || !vectorsEqual(into.Slice(n, 2*n), v) {
			t.Fatalf("%s: decoding twice into one vector did not append the values twice", name)
		}
		for cut := 1; cut <= 8*n; cut++ {
			short := NewVector(v.Type, 0)
			if err := DecodeBlockInto(short, data[:len(data)-cut]); err == nil {
				t.Fatalf("%s: a payload short by %d bytes decoded", name, cut)
			}
			if short.Len() != 0 {
				t.Fatalf("%s: a payload short by %d bytes left %d rows behind", name, cut, short.Len())
			}
		}
	}
}

// countRuns has a loop per type; RLE's encoder still compares through
// valueEq, and the two must agree on what a run is.
func TestCountRunsAgreesWithValueEq(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for name, v := range map[string]*Vector{
		"ints":    IntVector([]int64{1, 1, 2, 2, 2, 1, math.MinInt64, math.MinInt64}),
		"floats":  FloatVector([]float64{0, math.Copysign(0, -1), nan1, nan1, nan2, 1, 1}),
		"strings": StringVector([]string{"", "", "a", "a", "b", ""}),
		"bools":   BoolVector([]bool{true, true, false, true, true}),
		"one":     IntVector([]int64{7}),
		"none":    NewVector(TypeFloat64, 0),
	} {
		want := 0
		for i := 0; i < v.Len(); i++ {
			if i == 0 || !valueEq(v, i, i-1) {
				want++
			}
		}
		if got := countRuns(v); got != want {
			t.Fatalf("%s: countRuns = %d, valueEq counts %d", name, got, want)
		}
	}
}

// Property: every encoding round-trips arbitrary int64 data.
func TestQuickIntRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		v := IntVector(vals)
		for _, enc := range []Encoding{EncPlain, EncRLE, EncDelta} {
			data, err := EncodeBlock(v, enc)
			if err != nil {
				return false
			}
			got, err := DecodeBlock(data)
			if err != nil || !vectorsEqual(v, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: string encodings round-trip arbitrary strings (incl. binary).
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		v := StringVector(vals)
		for _, enc := range []Encoding{EncPlain, EncRLE, EncDict} {
			data, err := EncodeBlock(v, enc)
			if err != nil {
				return false
			}
			got, err := DecodeBlock(data)
			if err != nil || !vectorsEqual(v, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: float encodings round-trip bit-exactly, including NaN.
func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(vals []float64, nan bool) bool {
		if nan && len(vals) > 0 {
			vals[0] = math.NaN()
		}
		v := FloatVector(vals)
		for _, enc := range []Encoding{EncPlain, EncRLE} {
			data, err := EncodeBlock(v, enc)
			if err != nil {
				return false
			}
			got, err := DecodeBlock(data)
			if err != nil || !vectorsEqual(v, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: BestEncoding never errors and always round-trips.
func TestQuickBestEncodingRoundTrip(t *testing.T) {
	f := func(ints []int64, strs []string, bools []bool) bool {
		for _, v := range []*Vector{IntVector(ints), StringVector(strs), BoolVector(bools)} {
			data, err := EncodeBlock(v, BestEncoding(v))
			if err != nil {
				return false
			}
			got, err := DecodeBlock(data)
			if err != nil || !vectorsEqual(v, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
