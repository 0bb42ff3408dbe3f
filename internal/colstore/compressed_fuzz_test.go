package colstore

import (
	"math"
	"slices"
	"testing"
)

// fuzzPred deterministically derives a predicate for a column of the given
// type from a selector byte. The value palettes mix in-domain values (exact
// half-integers, NaN, ±0.0, dictionary-shaped strings, the empty string) with
// cross-type values so the fuzzer also exercises the compare-error path.
func fuzzPred(typ Type, sel uint8) *Pred {
	ops := []CompareOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	op := ops[int(sel)%len(ops)]
	var vals []any
	switch typ {
	case TypeInt64:
		vals = []any{int64(0), int64(7), int64(-20), int64(math.MaxInt64), 1.5, "zz", int64(1 << 53), int64(-1 << 53)}
	case TypeFloat64:
		vals = []any{0.0, math.Copysign(0, -1), math.NaN(), 2.5, math.Inf(1), int64(3), true}
	case TypeString:
		vals = []any{"", "red", "green", "m", int64(1)}
	case TypeBool:
		vals = []any{true, false, int64(0)}
	}
	return &Pred{Col: "c", Op: op, Val: vals[int(sel/6)%len(vals)]}
}

// FuzzCompressedScanEquivalence is the block-level equivalence harness for
// compressed execution: for an arbitrary encoded block and predicate, the
// compressed matcher (predicates evaluated per-run / per-dictionary-code)
// and the eager path (full decode, then per-row match) must agree on the
// selected row set — or both must reject the block. On top of the match set,
// the selective decoder must materialize exactly what decode-then-gather
// does, and must reject corrupt bytes with the eager decoder's error.
//
// Blocks come from two shapes of the same input bytes: a valid encode of a
// vector derived from the bytes (rawMode=false), and the raw bytes treated
// as a block image (rawMode=true), which explores the corrupt-input surface.
func FuzzCompressedScanEquivalence(f *testing.F) {
	// Seed the corpus with the shapes the difftest generator produces:
	// run-length data straddling block boundaries, NaN/-0.0 float runs,
	// low-cardinality alternating strings (dictionary), empty strings, and a
	// couple of corrupt images.
	f.Add(uint8(0), uint8(1), uint8(0), false, []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add(uint8(1), uint8(1), uint8(2), false, []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(2), uint8(0), false, []byte{3, 'r', 'e', 'd', 0, 3, 'r', 'e', 'd', 4, 'b', 'l', 'u', 'e'})
	f.Add(uint8(3), uint8(1), uint8(3), false, []byte{1, 1, 1, 0, 0, 1})
	iv := IntVector([]int64{4, 4, 4, 4, -1, -1})
	if blk, err := EncodeBlock(iv, EncRLE); err == nil {
		f.Add(uint8(0), uint8(0), uint8(6), true, blk)
		if len(blk) > 4 {
			f.Add(uint8(0), uint8(0), uint8(6), true, blk[:len(blk)-2]) // truncated RLE value
		}
	}
	sv := StringVector([]string{"a", "", "a", "bb"})
	if blk, err := EncodeBlock(sv, EncDict); err == nil {
		f.Add(uint8(2), uint8(0), uint8(12), true, blk)
	}
	f.Add(uint8(0), uint8(0), uint8(0), true, []byte{byte(TypeString), byte(EncDict), 0xff, 0xff, 0xff, 0x7f})
	// INTEGER stats past 2^53 round: 2^53+1 is recorded as 2^53, so neither
	// > 2^53 nor, mirrored, < -2^53 may rule the block out.
	big := []byte{0, 0x20, 0, 0, 0, 0, 0, 1}
	f.Add(uint8(0), uint8(1), uint8(40), false, slices.Concat(big, big, big, big))
	small := []byte{0xff, 0xdf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	f.Add(uint8(0), uint8(3), uint8(44), false, slices.Concat(small, small, small, small))

	f.Fuzz(func(t *testing.T, typSel, encSel, predSel uint8, rawMode bool, data []byte) {
		typ := []Type{TypeInt64, TypeFloat64, TypeString, TypeBool}[typSel%4]
		var blk []byte
		if rawMode {
			blk = data
			if len(blk) == 0 {
				blk = []byte{0}
			}
			switch Type(blk[0]) {
			case TypeInt64, TypeFloat64, TypeString, TypeBool:
				typ = Type(blk[0]) // predicate in the block's own domain
			}
		} else {
			v := vectorFromBytes(typ, data)
			if v.Len() > MaxBlockRows {
				t.Skip("larger than any real block")
			}
			encs := []Encoding{EncPlain, EncRLE, BestEncoding(v)}
			if typ == TypeInt64 {
				encs = append(encs, EncDelta)
			}
			if typ == TypeString {
				encs = append(encs, EncDict)
			}
			var err error
			blk, err = EncodeBlock(v, encs[int(encSel)%len(encs)])
			if err != nil {
				t.Fatalf("encode %v: %v", typ, err)
			}
		}
		pred := fuzzPred(typ, predSel)

		// Eager reference: full decode, then per-row match.
		refV, refDecErr := DecodeBlock(blk)
		var refIdx []int
		refErr := refDecErr
		if refErr == nil {
			refIdx, refErr = pred.selectRows(refV, nil, nil)
		}

		// The zone map's verdicts on the block's stats, as Seal records
		// them: a block it rules out has no matching row, and one it decides
		// has every row match.
		if refErr == nil {
			ref := blockRef{data: blk, rows: refV.Len()}
			ref.hasStats, ref.min, ref.max = vectorStats(refV)
			if !pred.blockMayMatch(ref) && len(refIdx) > 0 {
				t.Fatalf("zone map [%v, %v] rules out %+v, which %d rows match", ref.min, ref.max, pred, len(refIdx))
			}
			if pred.blockAllMatch(ref) && len(refIdx) != refV.Len() {
				t.Fatalf("zone map [%v, %v] decides %+v, which %d of %d rows match", ref.min, ref.max, pred, len(refIdx), refV.Len())
			}
		}

		gotIdx, handled, gotErr := MatchBlockCompressed(blk, pred, nil)
		if handled {
			if (gotErr != nil) != (refErr != nil) {
				t.Fatalf("compressed match error disagrees with eager path\n  compressed: %v\n  eager:      %v\n  block: %x", gotErr, refErr, blk)
			}
			if gotErr == nil {
				if len(gotIdx) != len(refIdx) {
					t.Fatalf("compressed matched %d rows, eager %d (pred %+v)", len(gotIdx), len(refIdx), pred)
				}
				for i := range gotIdx {
					if gotIdx[i] != refIdx[i] {
						t.Fatalf("match index %d: compressed %d, eager %d", i, gotIdx[i], refIdx[i])
					}
				}
			}
		}

		// Selective decode vs decode-then-gather, on the eagerly-matched rows
		// (the exact set the scan path materializes late).
		out := NewVector(typ, 0)
		if refDecErr == nil && Type(blk[0]) == typ {
			sel := refIdx
			if refErr != nil {
				// Match failed (cross-type compare); use a stride instead.
				sel = nil
				for i := 0; i < refV.Len(); i += 2 {
					sel = append(sel, i)
				}
			}
			if err := DecodeBlockSel(out, blk, sel); err != nil {
				t.Fatalf("selective decode rejected a block the eager decoder accepted: %v", err)
			}
			if want := refV.Gather(sel); !vectorsEqual(want, out) {
				t.Fatalf("selective decode of %d rows differs from decode+gather", len(sel))
			}
		} else if refDecErr != nil && Type(blk[0]) == typ {
			selErr := DecodeBlockSel(out, blk, nil)
			if selErr == nil {
				t.Fatalf("selective decoder accepted a block the eager decoder rejected: %v", refDecErr)
			}
			if selErr.Error() != refDecErr.Error() {
				t.Fatalf("corrupt-block error diverges\n  selective: %v\n  eager:     %v", selErr, refDecErr)
			}
		}
	})
}
