package colstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// preds covering every operator against present, absent, and boundary values.
func predsFor(col string, vals ...any) []*Pred {
	var out []*Pred
	for _, v := range vals {
		for _, op := range []CompareOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE} {
			out = append(out, &Pred{Col: col, Op: op, Val: v})
		}
	}
	return out
}

// compressedTestVectors is the shared palette of encoding-adversarial
// vectors: long runs (RLE), NaN and signed-zero runs, low-cardinality
// alternating strings (DICT), and empty blocks.
func compressedTestVectors() map[string]struct {
	vec  *Vector
	encs []Encoding
} {
	nan := math.NaN()
	return map[string]struct {
		vec  *Vector
		encs []Encoding
	}{
		"int-runs": {
			IntVector([]int64{7, 7, 7, 7, -2, -2, math.MaxInt64, math.MaxInt64, math.MaxInt64, 0}),
			[]Encoding{EncPlain, EncRLE},
		},
		"float-nan-zero-runs": {
			FloatVector([]float64{nan, nan, nan, math.Copysign(0, -1), math.Copysign(0, -1), 0.0, 0.0, 1.5, 1.5, math.Inf(1)}),
			[]Encoding{EncPlain, EncRLE},
		},
		"string-runs": {
			StringVector([]string{"blue", "blue", "blue", "", "", "red", "red", "red", "red", "zz"}),
			[]Encoding{EncPlain, EncRLE, EncDict},
		},
		"string-alternating": {
			StringVector([]string{"a", "b", "a", "b", "a", "b", "a", "b"}),
			[]Encoding{EncPlain, EncRLE, EncDict},
		},
		"bool-runs": {
			BoolVector([]bool{true, true, true, false, false, true}),
			[]Encoding{EncPlain, EncRLE},
		},
		"empty-int":    {NewVector(TypeInt64, 0), []Encoding{EncPlain, EncRLE}},
		"empty-string": {NewVector(TypeString, 0), []Encoding{EncPlain, EncRLE, EncDict}},
	}
}

func predsForVec(v *Vector) []*Pred {
	switch v.Type {
	case TypeInt64:
		// Present, absent, boundary, float-widening, and mixed-type values.
		return predsFor("c", int64(7), int64(-2), int64(5), int64(math.MaxInt64), float64(6.5), "oops")
	case TypeFloat64:
		return predsFor("c", 1.5, math.NaN(), 0.0, math.Copysign(0, -1), math.Inf(1), int64(1), true)
	case TypeString:
		return predsFor("c", "red", "", "green", "m", "zzz", int64(3))
	case TypeBool:
		return predsFor("c", true, false, int64(1))
	}
	return nil
}

// TestMatchBlockCompressedMatchesEager pins the tentpole equivalence at the
// block level: for every encoding and predicate — including values absent
// from the dictionary, NaN, signed zero, and mixed-type comparisons that must
// error — the compressed matcher returns exactly what decode-then-filter
// returns, or both fail with the same error.
func TestMatchBlockCompressedMatchesEager(t *testing.T) {
	for name, tc := range compressedTestVectors() {
		for _, enc := range tc.encs {
			data, err := EncodeBlock(tc.vec, enc)
			if err != nil {
				t.Fatalf("%s/%v encode: %v", name, enc, err)
			}
			for _, pred := range predsForVec(tc.vec) {
				wantIdx, wantErr := func() ([]int, error) {
					v, err := DecodeBlock(data)
					if err != nil {
						return nil, err
					}
					return pred.selectRows(v, nil, nil)
				}()
				gotIdx, handled, gotErr := MatchBlockCompressed(data, pred, nil)
				if enc == EncRLE && !handled {
					t.Fatalf("%s/%v: RLE block not handled compressed", name, enc)
				}
				if enc == EncDict && tc.vec.Type == TypeString && !handled {
					t.Fatalf("%s/%v: DICT block not handled compressed", name, enc)
				}
				if !handled {
					continue // PLAIN/DELTA: no compressed evaluation, eager path covers it
				}
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s/%v pred %v %v: compressed err %v, eager err %v", name, enc, pred.Op, pred.Val, gotErr, wantErr)
				}
				if wantErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s/%v pred %v %v: error %q, want %q", name, enc, pred.Op, pred.Val, gotErr, wantErr)
					}
					continue
				}
				if len(gotIdx) != len(wantIdx) {
					t.Fatalf("%s/%v pred %v %v: %d matches, want %d", name, enc, pred.Op, pred.Val, len(gotIdx), len(wantIdx))
				}
				for i := range gotIdx {
					if gotIdx[i] != wantIdx[i] {
						t.Fatalf("%s/%v pred %v %v: idx[%d] = %d, want %d", name, enc, pred.Op, pred.Val, i, gotIdx[i], wantIdx[i])
					}
				}
			}
		}
	}
}

// TestDictAbsentPushdown pins the dictionary-absent behaviors called out in
// the issue: an equality probe for a value not in the dictionary selects
// nothing (after only |dict| comparisons — no row decodes), and range
// operators land on the correct boundary rows.
func TestDictAbsentPushdown(t *testing.T) {
	v := StringVector([]string{"azul", "rot", "azul", "rot", "azul", "rot", "azul", "rot"})
	data, err := EncodeBlock(v, EncDict)
	if err != nil {
		t.Fatal(err)
	}
	idx, handled, err := MatchBlockCompressed(data, &Pred{Col: "s", Op: OpEQ, Val: "green"}, nil)
	if err != nil || !handled {
		t.Fatalf("absent equality: handled=%v err=%v", handled, err)
	}
	if len(idx) != 0 {
		t.Fatalf("equality on absent value matched %d rows, want 0", len(idx))
	}
	// "green" sorts between "azul" and "rot": < selects the azul rows (even
	// indexes), > selects the rot rows (odd indexes).
	lt, _, err := MatchBlockCompressed(data, &Pred{Col: "s", Op: OpLT, Val: "green"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gt, _, err := MatchBlockCompressed(data, &Pred{Col: "s", Op: OpGT, Val: "green"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt) != 4 || len(gt) != 4 {
		t.Fatalf("range boundary: lt=%v gt=%v, want 4 even / 4 odd rows", lt, gt)
	}
	for i, r := range lt {
		if r != 2*i {
			t.Fatalf("lt rows = %v, want even indexes", lt)
		}
	}
	for i, r := range gt {
		if r != 2*i+1 {
			t.Fatalf("gt rows = %v, want odd indexes", gt)
		}
	}
}

// TestDecodeBlockSelMatchesGather: selective decode must equal full decode +
// gather, bit-for-bit, for every encoding and selection shape (empty, all,
// sparse, duplicated indexes).
func TestDecodeBlockSelMatchesGather(t *testing.T) {
	for name, tc := range compressedTestVectors() {
		n := tc.vec.Len()
		sels := [][]int{nil, {}}
		if n > 0 {
			all := make([]int, n)
			var evens []int
			for i := 0; i < n; i++ {
				all[i] = i
				if i%2 == 0 {
					evens = append(evens, i)
				}
			}
			sels = append(sels, all, evens, []int{0, 0, n - 1, n - 1}, []int{n / 2})
		}
		for _, enc := range tc.encs {
			data, err := EncodeBlock(tc.vec, enc)
			if err != nil {
				t.Fatalf("%s/%v encode: %v", name, enc, err)
			}
			for _, sel := range sels {
				full, err := DecodeBlock(data)
				if err != nil {
					t.Fatalf("%s/%v decode: %v", name, enc, err)
				}
				want := full.Gather(sel)
				got := NewVector(tc.vec.Type, len(sel))
				if err := DecodeBlockSel(got, data, sel); err != nil {
					t.Fatalf("%s/%v sel %v: %v", name, enc, sel, err)
				}
				if !vectorsEqual(want, got) {
					t.Fatalf("%s/%v sel %v: selective decode != decode+gather", name, enc, sel)
				}
			}
		}
	}
}

// TestCompressedErrorParity: a corrupt block is rejected with one error by
// every reader — DecodeBlockInto, DecodeBlockSel, MatchBlockCompressed and a
// NextBlock cursor — even when the corruption lies outside the selection; and
// a selection out of the block's range names the offending index.
func TestCompressedErrorParity(t *testing.T) {
	v := IntVector([]int64{5, 5, 5, 5, 9, 9, 9, 9})
	data, err := EncodeBlock(v, EncRLE)
	if err != nil {
		t.Fatal(err)
	}
	sv := StringVector([]string{"x", "y", "x", "y"})
	sdata, err := EncodeBlock(sv, EncDict)
	if err != nil {
		t.Fatal(err)
	}
	with := func(b []byte, at int, to ...byte) []byte {
		return append(append(append([]byte{}, b[:at]...), to...), b[at+len(to):]...)
	}
	tooMany := binary.AppendUvarint([]byte{byte(TypeInt64), byte(EncRLE)}, MaxBlockRows+1)
	for i, tc := range []struct {
		typ  Type
		data []byte
		sel  []int  // DecodeBlockSel alone, of a sound block
		want string // the error; empty: DecodeBlockInto's
	}{
		{TypeInt64, data[:len(data)-3], nil, ""}, // truncated RLE value
		{TypeInt64, data[:4], nil, ""},           // truncated mid-header/run
		{TypeString, sdata[:len(sdata)-1], nil, ""},
		{TypeString, sdata[:5], nil, ""},
		{TypeInt64, with(data, 0, 9), nil, "colstore: unknown type byte 9"},
		{TypeInt64, with(data, 1, 9), nil, "colstore: unknown encoding byte 9"},
		{TypeInt64, append(tooMany, data[3:]...), nil, "colstore: block claims 16777217 rows (max 16777216)"},
		{TypeInt64, with(data, 3, 0), nil, "colstore: RLE run 0 exceeds remaining 8 rows"},
		{TypeString, with(sdata, len(sdata)-1, 7), nil, "colstore: dict code 7 out of range 2"},
		{TypeInt64, data[:2], nil, "colstore: block too short (2 bytes)"},
		{TypeInt64, data, []int{-1, 2}, "colstore: selection index -1 out of range 8 rows"},
		{TypeInt64, data, []int{2, 8}, "colstore: selection index 8 out of range 8 rows"},
	} {
		same := func(route string, err error) {
			t.Helper()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("corrupt[%d]: %s err %v, want %q", i, route, err, tc.want)
			}
		}
		if tc.sel != nil {
			same("DecodeBlockSel", DecodeBlockSel(NewVector(tc.typ, 0), tc.data, tc.sel))
			continue
		}
		wantErr := DecodeBlockInto(NewVector(tc.typ, 0), tc.data)
		if wantErr == nil {
			t.Fatalf("corrupt[%d]: eager decode accepted it", i)
		}
		if tc.want == "" {
			tc.want = wantErr.Error()
		}
		same("DecodeBlockInto", wantErr)
		same("DecodeBlockSel", DecodeBlockSel(NewVector(tc.typ, 0), tc.data, nil))
		pred := &Pred{Col: "c", Op: OpEQ, Val: int64(5)}
		if tc.typ == TypeString {
			pred = &Pred{Col: "c", Op: OpEQ, Val: "x"}
		}
		_, handled, gotErr := MatchBlockCompressed(tc.data, pred, nil)
		if !handled {
			t.Fatalf("corrupt[%d]: MatchBlockCompressed left it to the eager route", i)
		}
		same("MatchBlockCompressed", gotErr)
		schema := Schema{{Name: "c", Type: tc.typ}}
		rows := v
		if tc.typ == TypeString {
			rows = sv
		}
		seg := NewSegment(schema, rows.Len())
		if err := seg.Append(&Batch{Schema: schema, Cols: []*Vector{rows}}); err != nil {
			t.Fatal(err)
		}
		seg.sealed[0][0].data = tc.data
		_, err := scanBlocks(seg, []string{"c"}, 1, func(*Block, ScanStats) {})
		same("NextBlock", err)
	}
	// A vector of no type takes no block.
	for _, err := range []error{DecodeBlockInto(&Vector{}, data), DecodeBlockSel(&Vector{}, data, nil)} {
		if err == nil || err.Error() != "colstore: decode INTEGER block into INVALID(0) vector" {
			t.Fatalf("typeless vector: err %v", err)
		}
	}
}

// expandBlock appends every row a Block stands for to dst.
func expandBlock(t *testing.T, dst *Batch, b *Block) {
	t.Helper()
	total := 0
	for e := 0; e < b.Len(); e++ {
		n := 1
		if b.Runs != nil {
			n = int(b.Runs[e])
		}
		total += n
		for c, col := range b.Cols {
			var v any
			if col.Codes != nil {
				v = col.Vals.Strs[col.Codes[e]]
			} else {
				v = col.Vals.Value(e)
			}
			for k := 0; k < n; k++ {
				if err := dst.Cols[c].AppendValue(v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if total != b.Rows {
		t.Fatalf("block entries cover %d rows, header says %d", total, b.Rows)
	}
}

// scanBlocks drains cols of seg through the NextBlock of k cursors, one after
// another, handing fn each block and the stats so far.
func scanBlocks(seg *Segment, cols []string, k int, fn func(*Block, ScanStats)) (ScanStats, error) {
	curs, err := seg.ScanCursors(cols, nil, k)
	var st ScanStats
	for i := 0; err == nil && i < len(curs); i++ {
		c := curs[i]
		if i > 0 {
			curs[i-1].Pass(c)
		}
		var blk *Block
		for blk, err = c.NextBlock(context.Background()); err == nil && blk != nil; blk, err = c.NextBlock(context.Background()) {
			now := st
			now.Add(c.Stats())
			fn(blk, now)
		}
		c.Close()
		st.Add(c.Stats())
	}
	return st, err
}

// TestScanBlocksMatchesScan: the typed block views cursors deliver through
// NextBlock reconstruct exactly the rows a full decode scan delivers, across
// mixed encodings, block boundaries straddled by runs, cursor ranges and the
// unsealed tail — blocks whose projected columns are all RLE/DICT arrive as
// runs (and count as BlocksCompressed), dictionary columns as codes, anything
// else one row per entry.
func TestScanBlocksMatchesScan(t *testing.T) {
	schema := Schema{
		{Name: "i", Type: TypeInt64},
		{Name: "f", Type: TypeFloat64},
		{Name: "s", Type: TypeString},
		{Name: "b", Type: TypeBool},
		{Name: "d", Type: TypeInt64},
		{Name: "m", Type: TypeString},
	}
	seg := NewSegment(schema, 8)
	const n = 30 // 3 sealed 8-row blocks + 6-row tail
	b := NewBatch(schema)
	for r := 0; r < n; r++ {
		// Runs of 6 straddle the 8-row block boundary while keeping every
		// block at ≤2 runs so RLE wins BestEncoding; f runs include NaN and
		// -0.0; s alternates two values so DICT wins over RLE; d is
		// sequential (DELTA) to force a row-per-entry block; m changes
		// encoding from block to block (DICT, then one-run RLE).
		fPalette := []float64{1.5, math.NaN(), math.Copysign(0, -1), 2.5}
		m := "z"
		if r < 8 {
			m = []string{"p", "q"}[r%2]
		}
		vals := []any{
			int64(r / 6),
			fPalette[(r/6)%len(fPalette)],
			[]string{"a", "b"}[r%2],
			r/6%2 == 0,
			int64(r),
			m,
		}
		for c := range vals {
			if err := b.Cols[c].AppendValue(vals[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		cols           []string
		wantCompressed int
		wantEntries    int // over the sealed blocks
	}{
		{[]string{"i", "f", "s", "b"}, 3, 24}, // all RLE/DICT, but s alternates: unit runs
		{[]string{"i", "f", "b"}, 3, 6},       // 2 runs per block
		{[]string{"i", "d"}, 0, 24},           // d decodes eagerly (DELTA)
		{[]string{"s", "d"}, 0, 24},
		{[]string{"s"}, 3, 24},
		{[]string{"b"}, 3, 6},
		{[]string{"m", "i"}, 3, 12}, // m is DICT in block 0 only
	} {
		got := NewBatch(mustProjectSchema(t, schema, tc.cols))
		entries := 0
		st, err := scanBlocks(seg, tc.cols, 2, func(blk *Block, st ScanStats) {
			if blk.Rows == 8 {
				entries += blk.Len()
				if (blk.Runs != nil) != (tc.wantCompressed > 0) {
					t.Fatalf("cols %v: sealed block runs=%v, want compressed=%v", tc.cols, blk.Runs, tc.wantCompressed > 0)
				}
				for c, name := range tc.cols {
					if dict := name == "s" || name == "m" && st.BlocksScanned == 1; (blk.Cols[c].Codes != nil) != dict {
						t.Fatalf("cols %v: column %s codes=%v", tc.cols, name, blk.Cols[c].Codes)
					}
				}
			}
			expandBlock(t, got, blk)
		})
		if err != nil {
			t.Fatalf("cols %v: %v", tc.cols, err)
		}
		want, err := seg.ReadAll(tc.cols)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("cols %v: %d rows, want %d", tc.cols, got.Len(), want.Len())
		}
		for c := range want.Cols {
			if !vectorsEqual(want.Cols[c], got.Cols[c]) {
				t.Fatalf("cols %v: column %s differs from decode scan", tc.cols, want.Schema[c].Name)
			}
		}
		if st.BlocksScanned != 3 || st.BlocksCompressed != tc.wantCompressed || st.TailRows != 6 || st.RowsOut != n {
			t.Fatalf("cols %v: stats %+v, want 3 scanned / %d compressed / 6 tail / %d rows", tc.cols, st, tc.wantCompressed, n)
		}
		if entries != tc.wantEntries {
			t.Fatalf("cols %v: %d entries over the sealed blocks, want %d", tc.cols, entries, tc.wantEntries)
		}
	}
}

// TestScanBlocksErrorParity: a corrupt block fails NextBlock with the eager
// decoder's error, whichever route (runs, codes, eager) the block takes.
func TestScanBlocksErrorParity(t *testing.T) {
	schema := Schema{{Name: "s", Type: TypeString}, {Name: "d", Type: TypeInt64}}
	enc := func(v *Vector, e Encoding) []byte {
		data, err := EncodeBlock(v, e)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rle := enc(IntVector([]int64{5, 5, 9, 9}), EncRLE)
	dict := enc(StringVector([]string{"x", "y", "x", "y"}), EncDict)
	badCode := append([]byte{}, dict...)
	badCode[len(badCode)-1] = 7
	delta := enc(IntVector([]int64{1, 2, 3, 4}), EncDelta)
	plain := enc(StringVector([]string{"p", "q", "r", "s"}), EncPlain)
	for i, tc := range []struct {
		col  int
		data []byte
	}{
		{1, rle[:len(rle)-3]},   // truncated RLE value
		{1, rle[:4]},            // truncated mid-run
		{0, dict[:len(dict)-1]}, // truncated dict codes
		{0, dict[:5]},           // truncated dict entries
		{0, badCode},            // code past the dictionary
		{1, delta[:len(delta)-1]},
		{0, plain[:len(plain)-1]},
		{0, rle}, // INTEGER block under a VARCHAR column
	} {
		wantErr := DecodeBlockInto(NewVector(schema[tc.col].Type, 0), tc.data)
		if wantErr == nil {
			t.Fatalf("corrupt[%d]: eager decode accepted it", i)
		}
		for _, cols := range [][]string{{schema[tc.col].Name}, {"s", "d"}} {
			seg := NewSegment(schema, 4)
			rows := &Batch{Schema: schema, Cols: []*Vector{
				StringVector([]string{"a", "a", "a", "a"}), IntVector([]int64{7, 7, 7, 7})}}
			if err := seg.Append(rows); err != nil {
				t.Fatal(err)
			}
			seg.sealed[tc.col][0].data = tc.data
			_, err := scanBlocks(seg, cols, 1, func(*Block, ScanStats) {})
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("corrupt[%d] cols %v: NextBlock err %v, want %v", i, cols, err, wantErr)
			}
		}
	}
}

func mustProjectSchema(t *testing.T, s Schema, cols []string) Schema {
	t.Helper()
	p, err := s.Project(cols)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScanStatsDistinguishSkippedAndCompressed pins the accounting over a
// known segment: 10 constant-valued (RLE) blocks, an equality predicate that
// zone-maps rules out in 9 of them — the stats must report 9 skipped, 1
// scanned, 1 evaluated compressed, as three distinct numbers.
func TestScanStatsDistinguishSkippedAndCompressed(t *testing.T) {
	schema := Schema{{Name: "x", Type: TypeInt64}}
	seg := NewSegment(schema, 100)
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i / 100) // block bi holds 100 copies of bi: RLE, tight zone maps
	}
	if err := seg.Append(&Batch{Schema: schema, Cols: []*Vector{IntVector(xs)}}); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	var st ScanStats
	rows := 0
	err := seg.ScanWithStats([]string{"x"}, &Pred{Col: "x", Op: OpEQ, Val: int64(5)}, &st, func(b *Batch) error {
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 100 {
		t.Fatalf("rows = %d, want 100", rows)
	}
	if st.BlocksScanned != 1 || st.BlocksSkipped != 9 || st.BlocksCompressed != 1 {
		t.Fatalf("stats = %+v, want 1 scanned / 9 skipped / 1 compressed", st)
	}
	// A DELTA column has no compressed evaluation: same zone-map skips, but
	// the surviving block decodes first and is not counted compressed.
	seqs := make([]int64, 1000)
	for i := range seqs {
		seqs[i] = int64(i)
	}
	dseg := NewSegment(schema, 100)
	if err := dseg.Append(&Batch{Schema: schema, Cols: []*Vector{IntVector(seqs)}}); err != nil {
		t.Fatal(err)
	}
	if err := dseg.Seal(); err != nil {
		t.Fatal(err)
	}
	var dec ScanStats
	rows = 0
	err = dseg.ScanWithStats([]string{"x"}, &Pred{Col: "x", Op: OpGE, Val: int64(900)}, &dec, func(b *Batch) error {
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 100 || dec.BlocksScanned != 1 || dec.BlocksSkipped != 9 || dec.BlocksCompressed != 0 {
		t.Fatalf("delta column: rows=%d stats=%+v, want 100 rows, 1/9/0", rows, dec)
	}
}

// TestRLEVarcharRunsAreViews: a run-aware read of RLE VARCHAR blocks —
// NextBlock's runs, or a cursor's compressed match under a predicate on the
// column — takes each run's value as a view of the sealed block, so a block
// read costs the same allocations whatever the block's run count: twelve
// more blocks of 512 runs allocate no more than twelve more of 8.
func TestRLEVarcharRunsAreViews(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	regions := []string{"amer", "apac", "emea", "latam", "mena", "nordic", "oceania", "ssa"}
	schema := Schema{{Name: "region", Type: TypeString}, {Name: "x", Type: TypeInt64}}
	segOf := func(runLen, blocks int) *Segment {
		seg := NewSegment(schema, DefaultBlockRows)
		b := NewBatch(schema)
		for i := 0; i < blocks*DefaultBlockRows; i++ {
			if err := b.AppendRow(regions[(i/runLen)%len(regions)], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := seg.Seal(); err != nil {
			t.Fatal(err)
		}
		if enc := Encoding(seg.sealed[0][0].data[1]); enc != EncRLE {
			t.Fatalf("runs of %d rows sealed as encoding %d", runLen, enc)
		}
		return seg
	}
	reads := map[string]func(*Segment){
		"NextBlock": func(seg *Segment) {
			if _, err := scanBlocks(seg, []string{"region"}, 1, func(*Block, ScanStats) {}); err != nil {
				t.Fatal(err)
			}
		},
		"compressed match": func(seg *Segment) {
			curs, err := seg.ScanCursors([]string{"x"}, []Pred{{Col: "region", Op: OpEQ, Val: "emea"}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for {
				b, err := curs[0].Next(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			curs[0].Close()
		},
	}
	for name, read := range reads {
		more := func(runLen int) float64 { // the allocations of 12 more blocks
			short, long := segOf(runLen, 4), segOf(runLen, 16)
			return testing.AllocsPerRun(5, func() { read(long) }) - testing.AllocsPerRun(5, func() { read(short) })
		}
		// Runs of 512 rows put one run of each region in a block, runs of 8
		// rows 64: either way a block holds 512 'emea' rows.
		if few, many := more(512), more(8); many > few {
			t.Errorf("%s: 12 more blocks of 8 runs allocate %.0f more times, of 512 runs %.0f", name, few, many)
		}
	}
}

// TestDictVarcharEntriesAreViews: a read of DICT VARCHAR blocks in their
// native form — NextBlock's entries and codes, or a cursor's compressed
// match under a predicate on the column — takes each dictionary entry as a
// view of the sealed block, so a block read costs the same allocations
// whatever the block's entry count: twelve more blocks of 512 entries
// allocate no more than twelve more of 8.
func TestDictVarcharEntriesAreViews(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	schema := Schema{{Name: "region", Type: TypeString}, {Name: "x", Type: TypeInt64}}
	segOf := func(entries, blocks int) *Segment {
		names := []string{"emea"}
		for len(names) < entries {
			names = append(names, fmt.Sprintf("region-%03d", len(names)))
		}
		seg := NewSegment(schema, DefaultBlockRows)
		b := NewBatch(schema)
		for i := 0; i < blocks*DefaultBlockRows; i++ {
			if err := b.AppendRow(names[i%entries], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := seg.Seal(); err != nil {
			t.Fatal(err)
		}
		if enc := Encoding(seg.sealed[0][0].data[1]); enc != EncDict {
			t.Fatalf("%d entries sealed as encoding %d", entries, enc)
		}
		return seg
	}
	reads := map[string]func(*Segment){
		"NextBlock": func(seg *Segment) {
			if _, err := scanBlocks(seg, []string{"region"}, 1, func(*Block, ScanStats) {}); err != nil {
				t.Fatal(err)
			}
		},
		"compressed match": func(seg *Segment) {
			curs, err := seg.ScanCursors([]string{"x"}, []Pred{{Col: "region", Op: OpEQ, Val: "emea"}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for {
				b, err := curs[0].Next(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			curs[0].Close()
		},
	}
	for name, read := range reads {
		more := func(entries int) float64 { // the allocations of 12 more blocks
			short, long := segOf(entries, 4), segOf(entries, 16)
			return testing.AllocsPerRun(5, func() { read(long) }) - testing.AllocsPerRun(5, func() { read(short) })
		}
		if few, many := more(8), more(512); many > few {
			t.Errorf("%s: 12 more blocks of 8 entries allocate %.0f more times, of 512 entries %.0f", name, few, many)
		}
	}
}
