package colstore

import (
	"context"
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

// refSelect is the reference conjunction: the rows of v for which every
// predicate, in order, holds under CompareValues, failing with the first
// comparison error a row meets before a predicate rules it out.
func refSelect(v *Vector, preds []Pred) ([]int, error) {
	var out []int
	for i := 0; i < v.Len(); i++ {
		keep := true
		for _, p := range preds {
			c, err := CompareValues(v.Value(i), p.Val)
			if err != nil {
				return nil, err
			}
			if keep = p.Op.Match(c); !keep {
				break
			}
		}
		if keep {
			out = append(out, i)
		}
	}
	return out, nil
}

// scanColumn drains a one-cursor scan of column c under preds, returning the
// rows it delivers and its stats.
func scanColumn(seg *Segment, preds []Pred) (*Vector, ScanStats, error) {
	curs, err := seg.ScanCursors(nil, preds, 1)
	if err != nil {
		return nil, ScanStats{}, err
	}
	c := curs[0]
	defer c.Close()
	out := NewBatch(seg.schema)
	for {
		b, err := c.Next(context.Background())
		if err != nil || b == nil {
			return out.Cols[0], c.Stats(), err
		}
		if err := out.AppendBatch(b); err != nil {
			return nil, c.Stats(), err
		}
	}
}

// FuzzCompressedScanEquivalence is the block-level equivalence harness for
// compressed execution and the interval kernel: for an arbitrary encoded
// block and a conjunction of one or two comparisons on its column (the
// second, when drawn, may fold with the first into one interval), the
// reference — a full decode, then CompareValues row by row — and every scan
// route must agree on the selected rows, or all must fail: the compressed
// matcher (the first comparison evaluated per run or per dictionary entry),
// a cursor over the block sealed with the stats Seal records (zone maps,
// folding, the compressed or decoded match, late materialization), and a
// cursor over the decoded rows as the unsealed tail. On top of the match
// set, the selective decoder must materialize exactly what decode-then-gather
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
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), false, []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add(uint8(1), uint8(1), uint8(2), uint8(0), false, []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), false, []byte{3, 'r', 'e', 'd', 0, 3, 'r', 'e', 'd', 4, 'b', 'l', 'u', 'e'})
	f.Add(uint8(3), uint8(1), uint8(3), uint8(0), false, []byte{1, 1, 1, 0, 0, 1})
	iv := IntVector([]int64{4, 4, 4, 4, -1, -1})
	if blk, err := EncodeBlock(iv, EncRLE); err == nil {
		f.Add(uint8(0), uint8(0), uint8(6), uint8(0), true, blk)
		if len(blk) > 4 {
			f.Add(uint8(0), uint8(0), uint8(6), uint8(0), true, blk[:len(blk)-2]) // truncated RLE value
		}
	}
	sv := StringVector([]string{"a", "", "a", "bb"})
	if blk, err := EncodeBlock(sv, EncDict); err == nil {
		f.Add(uint8(2), uint8(0), uint8(12), uint8(0), true, blk)
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), true, []byte{byte(TypeString), byte(EncDict), 0xff, 0xff, 0xff, 0x7f})
	// INTEGER stats past 2^53 round: 2^53+1 is recorded as 2^53, so neither
	// > 2^53 nor, mirrored, < -2^53 may rule the block out.
	big := []byte{0, 0x20, 0, 0, 0, 0, 0, 1}
	f.Add(uint8(0), uint8(1), uint8(40), uint8(0), false, slices.Concat(big, big, big, big))
	small := []byte{0xff, 0xdf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	f.Add(uint8(0), uint8(3), uint8(44), uint8(0), false, slices.Concat(small, small, small, small))

	// One column's two bounds: a range on ascending INTEGER and FLOAT rows,
	// inverted bounds, and a second bound on the same side, which stays a
	// comparison of its own.
	f.Add(uint8(0), uint8(2), uint8(3*6+5), uint8(1+2*6+2), false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add(uint8(1), uint8(0), uint8(5), uint8(1+4*6+2), false, []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x40, 4, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(0), uint8(1), uint8(1*6+4), uint8(1+0*6+2), false, []byte{0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8})
	f.Add(uint8(0), uint8(1), uint8(1*6+4), uint8(1+0*6+5), false, []byte{0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8})
	f.Add(uint8(2), uint8(2), uint8(1*6+5), uint8(1+3*6+3), false, []byte{3, 'r', 'e', 'd', 0, 1, 'm', 5, 'g', 'r', 'e', 'e', 'n'})

	f.Fuzz(func(t *testing.T, typSel, encSel, predSel, pred2Sel uint8, rawMode bool, data []byte) {
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
		preds := []Pred{*fuzzPred(typ, predSel)}
		if pred2Sel > 0 {
			preds = append(preds, *fuzzPred(typ, pred2Sel-1))
		}
		pred := &preds[0]

		// Eager reference: full decode, then CompareValues row by row.
		refV, refDecErr := DecodeBlock(blk)
		var refIdx, firstIdx []int
		refErr, firstErr := refDecErr, refDecErr
		if refDecErr == nil {
			refIdx, refErr = refSelect(refV, preds)
			firstIdx, firstErr = refSelect(refV, preds[:1])
		}

		// The zone map's verdicts on the block's stats, as Seal records
		// them: a block it rules out has no row inside a comparison's
		// interval, and one it decides has every row inside.
		ref := blockRef{data: blk}
		if refDecErr == nil {
			ref.rows = refV.Len()
			ref.hasStats, ref.min, ref.max = vectorStats(refV)
			for i := range preds {
				p := &preds[i]
				rows, err := refSelect(refV, preds[i:i+1])
				if err != nil {
					continue
				}
				if iv, _ := p.interval(ValueType(p.Val)); !iv.blockMayMatch(ref) && len(rows) > 0 {
					t.Fatalf("zone map [%v, %v] rules out %+v, which %d rows match", ref.min, ref.max, p, len(rows))
				} else if iv.blockAllMatch(ref) && len(rows) != refV.Len() {
					t.Fatalf("zone map [%v, %v] decides %+v, which %d of %d rows match", ref.min, ref.max, p, len(rows), refV.Len())
				}
			}
		} else if _, _, n, _, err := blockHeader(blk, anyType); err == nil {
			ref.rows = n
		}

		gotIdx, handled, gotErr := MatchBlockCompressed(blk, pred, nil)
		if handled {
			if (gotErr != nil) != (firstErr != nil) {
				t.Fatalf("compressed match error disagrees with eager path\n  compressed: %v\n  eager:      %v\n  block: %x", gotErr, firstErr, blk)
			}
			if gotErr == nil && !slices.Equal(gotIdx, firstIdx) {
				t.Fatalf("compressed matched rows %v, eager %v (pred %+v)", gotIdx, firstIdx, pred)
			}
		}

		// The scan routes: the block sealed, then its rows as the tail. A
		// block the zone maps rule out raises no comparison error, so a scan
		// that skipped it may succeed where the reference fails, and only
		// that way round.
		schema := Schema{{Name: "c", Type: typ}}
		sealed := NewSegment(schema, 0)
		sealed.sealed[0], sealed.rows = []blockRef{ref}, ref.rows
		got, st, err := scanColumn(sealed, preds)
		switch {
		case (err != nil) != (refErr != nil) && !(err == nil && refErr != nil && st.BlocksSkipped == 1):
			t.Fatalf("sealed scan under %v: error %v, reference %v\n  block: %x", preds, err, refErr, blk)
		case err == nil && refErr == nil && !vectorsEqual(got, refV.Gather(refIdx)):
			t.Fatalf("sealed scan under %v: %d rows, reference %d", preds, got.Len(), len(refIdx))
		}
		if refDecErr == nil {
			tail := NewSegment(schema, refV.Len()+1)
			if err := tail.Append(&Batch{Schema: schema, Cols: []*Vector{refV}}); err != nil {
				t.Fatal(err)
			}
			got, _, err := scanColumn(tail, preds)
			switch {
			case (err != nil) != (refErr != nil):
				t.Fatalf("tail scan under %v: error %v, reference %v", preds, err, refErr)
			case err == nil && !vectorsEqual(got, refV.Gather(refIdx)):
				t.Fatalf("tail scan under %v: %d rows, reference %d", preds, got.Len(), len(refIdx))
			}
		}

		// Selective decode vs decode-then-gather, on the eagerly-matched rows
		// (the exact set the scan path materializes late).
		out := NewVector(typ, 0)
		if refDecErr == nil && Type(blk[0]) == typ {
			sel := firstIdx
			if firstErr != nil {
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
