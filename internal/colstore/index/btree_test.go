package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refLookup filters keys the way the engine's scan does: NaN compares
// "equal" to everything (cmpOrdered returns 0), so NaN rows match =, <= and
// >= probes and never < or >.
func refLookup(keys []any, op Op, val any) []uint32 {
	var out []uint32
	for i, k := range keys {
		c := 0
		kf, kIsF := k.(float64)
		vf, vIsF := val.(float64)
		switch {
		case kIsF && math.IsNaN(kf), vIsF && math.IsNaN(vf):
			c = 0
		default:
			switch kk := k.(type) {
			case int64:
				switch vv := val.(type) {
				case int64:
					c = cmp3(kk, vv)
				case float64:
					c = cmp3(float64(kk), vv)
				}
			case float64:
				switch vv := val.(type) {
				case int64:
					c = cmp3(kk, float64(vv))
				case float64:
					c = cmp3(kk, vv)
				}
			case string:
				c = cmp3(kk, val.(string))
			case bool:
				ki, vi := 0, 0
				if kk {
					ki = 1
				}
				if val.(bool) {
					vi = 1
				}
				c = cmp3(ki, vi)
			}
		}
		if opMatch(op, c) {
			out = append(out, uint32(i))
		}
	}
	return out
}

func cmp3[T int | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func opMatch(op Op, c int) bool {
	switch op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	}
	return false
}

func buildFrom(t *testing.T, keys []any) *Tree {
	t.Helper()
	var b Builder
	for i, k := range keys {
		b.Add(k, uint32(i))
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func checkAllOps(t *testing.T, tr *Tree, keys []any, probes []any) {
	t.Helper()
	for _, val := range probes {
		for _, op := range []Op{OpEQ, OpLT, OpLE, OpGT, OpGE} {
			got, handled := tr.Lookup(op, val)
			if !handled {
				t.Fatalf("op %d val %v: not handled", op, val)
			}
			want := refLookup(keys, op, val)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d val %v:\n got %v\nwant %v", op, val, got, want)
			}
		}
		if _, handled := tr.Lookup(OpNE, val); handled {
			t.Fatalf("OpNE must not be index-served")
		}
	}
}

func TestLookupIntDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]any, 5000)
	for i := range keys {
		keys[i] = int64(rng.Intn(300) - 150)
	}
	tr := buildFrom(t, keys)
	if tr.Rows() != len(keys) {
		t.Fatalf("rows = %d", tr.Rows())
	}
	probes := []any{int64(-151), int64(-150), int64(0), int64(7), int64(149), int64(150), int64(9999), float64(0.5), float64(-3)}
	checkAllOps(t, tr, keys, probes)
}

func TestLookupFloatWithNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := make([]any, 3000)
	for i := range keys {
		switch {
		case rng.Intn(20) == 0:
			keys[i] = math.NaN()
		case rng.Intn(10) == 0:
			keys[i] = 0.0 * float64(1-2*rng.Intn(2)) // mix +0 and -0
		default:
			keys[i] = math.Round(rng.Float64()*100) / 4
		}
	}
	tr := buildFrom(t, keys)
	probes := []any{0.0, math.Copysign(0, -1), 5.25, 12.5, int64(3), math.NaN(), -1.0, 100.0}
	checkAllOps(t, tr, keys, probes)
}

func TestLookupStringsAndBools(t *testing.T) {
	skeys := []any{"b", "a", "cc", "a", "", "zz", "b"}
	checkAllOps(t, buildFrom(t, skeys), skeys, []any{"a", "", "b", "q", "zzz"})
	bkeys := []any{true, false, true, true, false}
	checkAllOps(t, buildFrom(t, bkeys), bkeys, []any{true, false})
}

func TestInsertCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]any, 2000)
	for i := range keys {
		keys[i] = int64(rng.Intn(50))
	}
	base := buildFrom(t, keys)
	tr := base
	all := append([]any(nil), keys...)
	for i := 0; i < 3000; i++ {
		var k any
		if i%17 == 0 {
			k = math.NaN()
		} else {
			k = int64(rng.Intn(5000) - 2500)
		}
		var err error
		tr, err = tr.Insert(k, uint32(len(all)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, k)
	}
	if tr.Rows() != len(all) {
		t.Fatalf("rows = %d want %d", tr.Rows(), len(all))
	}
	checkAllOps(t, tr, all, []any{int64(0), int64(-2500), int64(2499), int64(30), math.NaN()})
	// The original tree must be untouched by the inserts.
	if base.Rows() != len(keys) {
		t.Fatalf("base rows changed: %d", base.Rows())
	}
	checkAllOps(t, base, keys, []any{int64(0), int64(25), int64(49)})
}

// TestDeepTreeSplits drives enough distinct keys through Insert to split
// internal nodes (root height >= 3) and checks lookups stay exact.
func TestDeepTreeSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tr *Tree
	var err error
	if tr, err = (&Builder{}).Build(); err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(20000)
	keys := make([]any, len(perm))
	for i, k := range perm {
		keys[i] = int64(k)
		if tr, err = tr.Insert(int64(k), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.DistinctKeys() != len(perm) || tr.Rows() != len(perm) {
		t.Fatalf("shape: %d keys %d rows", tr.DistinctKeys(), tr.Rows())
	}
	checkAllOps(t, tr, keys, []any{int64(0), int64(1), int64(9999), int64(19999), int64(20000), int64(-1)})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]any, 1500)
	for i := range keys {
		switch rng.Intn(3) {
		case 0:
			keys[i] = math.NaN()
		case 1:
			keys[i] = float64(rng.Intn(40))
		default:
			keys[i] = float64(rng.Intn(40)) + 0.5
		}
	}
	tr := buildFrom(t, keys)
	enc := tr.Encode()
	dec, err := DecodeTree(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rows() != tr.Rows() || dec.DistinctKeys() != tr.DistinctKeys() {
		t.Fatalf("decoded shape: rows %d/%d keys %d/%d", dec.Rows(), tr.Rows(), dec.DistinctKeys(), tr.DistinctKeys())
	}
	checkAllOps(t, dec, keys, []any{0.0, 20.5, 39.0, math.NaN()})
	// Corrupt / truncated inputs must error, never panic.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeTree(enc[:cut]); err == nil && cut < len(enc) {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := buildFrom(t, nil)
	for _, op := range []Op{OpEQ, OpLT, OpLE, OpGT, OpGE} {
		rows, handled := tr.Lookup(op, int64(1))
		if !handled || len(rows) != 0 {
			t.Fatalf("empty lookup: %v %v", rows, handled)
		}
	}
	dec, err := DecodeTree(tr.Encode())
	if err != nil || dec.Rows() != 0 {
		t.Fatalf("empty round trip: %v %v", dec, err)
	}
}

func TestIncomparableUnhandled(t *testing.T) {
	tr := buildFrom(t, []any{"a", "b"})
	if _, handled := tr.Lookup(OpEQ, int64(1)); handled {
		t.Fatal("string tree must not serve an int probe")
	}
}

// refRange filters keys satisfying both bounds, mirroring a scan that
// applies the two predicates row by row.
func refRange(keys []any, loOp Op, lo any, hiOp Op, hi any) []uint32 {
	lset := map[uint32]bool{}
	for _, r := range refLookup(keys, loOp, lo) {
		lset[r] = true
	}
	var out []uint32
	for _, r := range refLookup(keys, hiOp, hi) {
		if lset[r] {
			out = append(out, r)
		}
	}
	return out
}

func checkRanges(t *testing.T, tr *Tree, keys []any, bounds [][2]any) {
	t.Helper()
	for _, b := range bounds {
		for _, loOp := range []Op{OpGT, OpGE} {
			for _, hiOp := range []Op{OpLT, OpLE} {
				got, handled := tr.LookupRange(loOp, b[0], hiOp, b[1])
				if !handled {
					t.Fatalf("range %v..%v ops %d/%d: not handled", b[0], b[1], loOp, hiOp)
				}
				want := refRange(keys, loOp, b[0], hiOp, b[1])
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("range %v..%v ops %d/%d:\n got %v\nwant %v", b[0], b[1], loOp, hiOp, got, want)
				}
			}
		}
	}
}

func TestLookupRangeIntDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]any, 5000)
	for i := range keys {
		keys[i] = int64(rng.Intn(300) - 150)
	}
	tr := buildFrom(t, keys)
	checkRanges(t, tr, keys, [][2]any{
		{int64(-10), int64(10)},
		{int64(-151), int64(151)},
		{int64(100), int64(100)},
		{int64(50), int64(-50)}, // empty: lo above hi
		{float64(-0.5), float64(42.5)},
		{int64(-3), float64(2.75)}, // mixed-width bounds
	})
}

func TestLookupRangeFloatWithNaNKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	keys := make([]any, 3000)
	for i := range keys {
		switch rng.Intn(10) {
		case 0:
			keys[i] = math.NaN()
		case 1:
			keys[i] = math.Copysign(0, -1)
		default:
			keys[i] = float64(rng.Intn(200)-100) / 4
		}
	}
	tr := buildFrom(t, keys)
	// NaN keys compare equal to both bounds, so they surface exactly for
	// the >=/<= combination — refRange encodes the same rule via refLookup.
	checkRanges(t, tr, keys, [][2]any{
		{float64(-5), float64(5)},
		{float64(-0.25), float64(0.25)}, // straddles ±0.0
		{float64(-100), float64(100)},
		{int64(0), int64(10)},
	})
}

func TestLookupRangeStrings(t *testing.T) {
	keys := []any{"b", "delta", "a", "cc", "b", "zz", "", "delta"}
	tr := buildFrom(t, keys)
	checkRanges(t, tr, keys, [][2]any{
		{"a", "d"},
		{"", "zz"},
		{"delta", "delta"},
	})
}

func TestLookupRangeUnsupported(t *testing.T) {
	tr := buildFrom(t, []any{int64(1), int64(2), int64(3)})
	if _, handled := tr.LookupRange(OpEQ, int64(1), OpLT, int64(3)); handled {
		t.Fatal("equality lower bound must not be range-served")
	}
	if _, handled := tr.LookupRange(OpGE, int64(1), OpGE, int64(3)); handled {
		t.Fatal("two lower bounds must not be range-served")
	}
	if _, handled := tr.LookupRange(OpGE, math.NaN(), OpLT, int64(3)); handled {
		t.Fatal("NaN bound must fall back to a scan")
	}
	if _, handled := tr.LookupRange(OpGE, "a", OpLT, "z"); handled {
		t.Fatal("string bounds against int keys must fall back")
	}
}

// TestLookupWidenedAround2p53 probes INTEGER keys 2^53-63 … 2^53+64 with
// FLOATs. 2^53 and 2^53+1 both widen to the FLOAT 2^53, and the bulk build
// puts a separator between them (2^53 ends the first leaf), so =, >= and a
// range's lower bound must descend on the left of a separator that compares
// equal to the probe.
func TestLookupWidenedAround2p53(t *testing.T) {
	const p53 = 1 << 53
	keys := make([]any, 128)
	for i := range keys {
		keys[i] = int64(p53 - 63 + i)
	}
	tr := buildFrom(t, keys)
	checkAllOps(t, tr, keys, []any{float64(p53), float64(p53 + 2), float64(p53 - 2), int64(p53)})
	checkRanges(t, tr, keys, [][2]any{
		{float64(p53), float64(p53)},
		{float64(p53), float64(p53 + 64)},
		{float64(p53 - 64), float64(p53)},
	})
}
