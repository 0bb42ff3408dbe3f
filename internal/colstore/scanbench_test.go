package colstore

import (
	"context"
	"fmt"
	"testing"
)

// benchSegment builds a sealed segment with numeric and string columns sized
// for scan benchmarking: rows rows in blocks of blockRows.
func benchSegment(b *testing.B, rows, blockRows int) *Segment {
	b.Helper()
	schema := Schema{
		{Name: "id", Type: TypeInt64},
		{Name: "v", Type: TypeFloat64},
		{Name: "tag", Type: TypeString},
	}
	seg := NewSegment(schema, blockRows)
	batch := NewBatch(schema)
	for i := 0; i < rows; i++ {
		if err := batch.AppendRow(int64(i), float64(i%1000), fmt.Sprintf("tag%d", i%17)); err != nil {
			b.Fatal(err)
		}
	}
	if err := seg.Append(batch); err != nil {
		b.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		b.Fatal(err)
	}
	return seg
}

// BenchmarkSegmentScan measures the serial scan path with a selective
// predicate (the satellite target for scratch-buffer reuse: allocations per
// block must not scale with the predicate index slices).
func BenchmarkSegmentScan(b *testing.B) {
	seg := benchSegment(b, 200_000, DefaultBlockRows)
	pred := &Pred{Col: "v", Op: OpLT, Val: float64(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		err := seg.Scan([]string{"id", "v"}, pred, func(batch *Batch) error {
			rows += batch.Len()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows != 100_000 {
			b.Fatalf("rows = %d", rows)
		}
	}
}

// BenchmarkSegmentParScan measures the scan over concurrent cursor ranges at
// fixed degrees (parScan). Degree 1 is the serial loop; higher degrees drain
// ranges concurrently and deliver them in order.
func BenchmarkSegmentParScan(b *testing.B) {
	seg := benchSegment(b, 200_000, DefaultBlockRows)
	pred := &Pred{Col: "v", Op: OpLT, Val: float64(500)}
	for _, deg := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("degree=%d", deg), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := 0
				err := parScan(context.Background(), seg, []string{"id", "v"}, pred, deg, nil, func(batch *Batch) error {
					rows += batch.Len()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if rows != 100_000 {
					b.Fatalf("rows = %d", rows)
				}
			}
		})
	}
}

// BenchmarkDecodeDelta decodes one DELTA block of DefaultBlockRows rows whose
// zig-zag varint deltas are 1, 2 or 3 bytes wide (an id column, a
// scattered key, a wide-ranging one), into a reused vector.
func BenchmarkDecodeDelta(b *testing.B) {
	for _, tc := range []struct {
		bytes int
		step  int64
	}{{1, 1}, {2, 1000}, {3, 100_000}} {
		b.Run(fmt.Sprintf("bytes=%d", tc.bytes), func(b *testing.B) {
			xs := make([]int64, DefaultBlockRows)
			for i := 1; i < len(xs); i++ {
				d := tc.step
				if i%3 == 0 {
					d = -d
				}
				xs[i] = xs[i-1] + d
			}
			blk, err := EncodeBlock(IntVector(xs), EncDelta)
			if err != nil {
				b.Fatal(err)
			}
			if per := (len(blk) - 4 + len(xs) - 1) / len(xs); per != tc.bytes {
				b.Fatalf("%d bytes a delta, want %d", per, tc.bytes)
			}
			v := NewVector(TypeInt64, DefaultBlockRows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Reset()
				if err := DecodeBlockInto(v, blk); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/row")
		})
	}
}

// parseBlocks are the blocks BenchmarkDecodeBlock and BenchmarkMatchCompressed
// parse, DefaultBlockRows rows each: random PLAIN INTEGER and FLOAT words,
// distinct PLAIN VARCHARs, region names in runs of 64 (RLE) and cycling
// through eight (DICT).
func parseBlocks(b *testing.B) []struct {
	name string
	blk  []byte
} {
	b.Helper()
	regions := []string{"amer", "apac", "emea", "latam", "mena", "nordic", "oceania", "ssa"}
	ints, floats := make([]int64, DefaultBlockRows), make([]float64, DefaultBlockRows)
	strs, runs, cycle := make([]string, DefaultBlockRows), make([]string, DefaultBlockRows), make([]string, DefaultBlockRows)
	for i := range ints {
		h := uint64(i+1) * 0x9E3779B97F4A7C15
		ints[i], floats[i] = int64(h), float64(h>>11)/(1<<53)
		strs[i], runs[i], cycle[i] = fmt.Sprintf("s%d", h>>40), regions[(i/64)%8], regions[i%8]
	}
	var out []struct {
		name string
		blk  []byte
	}
	for _, c := range []struct {
		name string
		v    *Vector
		enc  Encoding
	}{
		{"PLAIN-INTEGER", IntVector(ints), EncPlain},
		{"PLAIN-FLOAT", FloatVector(floats), EncPlain},
		{"PLAIN-VARCHAR", StringVector(strs), EncPlain},
		{"RLE-VARCHAR", StringVector(runs), EncRLE},
		{"DICT-VARCHAR", StringVector(cycle), EncDict},
	} {
		if got := BestEncoding(c.v); got != c.enc {
			b.Fatalf("%s: BestEncoding picks %v", c.name, got)
		}
		blk, err := EncodeBlock(c.v, c.enc)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, struct {
			name string
			blk  []byte
		}{c.name, blk})
	}
	return out
}

// BenchmarkDecodeBlock decodes each of parseBlocks into a reused vector,
// whole (DecodeBlockInto) and one row in 64 (DecodeBlockSel).
func BenchmarkDecodeBlock(b *testing.B) {
	var sel []int
	for i := 0; i < DefaultBlockRows; i += 64 {
		sel = append(sel, i)
	}
	for _, pb := range parseBlocks(b) {
		for _, mode := range []string{"whole", "sel64"} {
			b.Run(pb.name+"/"+mode, func(b *testing.B) {
				v := NewVector(Type(pb.blk[0]), DefaultBlockRows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.Reset()
					var err error
					if mode == "whole" {
						err = DecodeBlockInto(v, pb.blk)
					} else {
						err = DecodeBlockSel(v, pb.blk, sel)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMatchCompressed evaluates region = 'emea' on the RLE and DICT
// blocks of parseBlocks on their encoded form, an eighth of the rows
// matching: one block through MatchBlockCompressed into a reused index
// slice ("block"), and 16 such blocks through a cursor ("cursor"), the route
// a scan takes, its buffers kept from block to block; the cursor projects a
// PLAIN INTEGER column beside them, read at the matching rows alone.
func BenchmarkMatchCompressed(b *testing.B) {
	pred := Pred{Col: "region", Op: OpEQ, Val: "emea"}
	blocks := parseBlocks(b)
	x, err := DecodeBlock(blocks[0].blk)
	if err != nil {
		b.Fatal(err)
	}
	for _, pb := range blocks[3:] {
		b.Run("block/"+pb.name, func(b *testing.B) {
			var idx []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if idx, _, err = MatchBlockCompressed(pb.blk, &pred, idx); err != nil || len(idx) != DefaultBlockRows/8 {
					b.Fatalf("%d rows match, err %v", len(idx), err)
				}
			}
		})
		b.Run("cursor/"+pb.name, func(b *testing.B) {
			const nblocks = 16
			v, err := DecodeBlock(pb.blk)
			if err != nil {
				b.Fatal(err)
			}
			schema := Schema{{Name: "region", Type: TypeString}, {Name: "x", Type: TypeInt64}}
			seg := NewSegment(schema, DefaultBlockRows)
			for i := 0; i < nblocks; i++ {
				if err := seg.Append(&Batch{Schema: schema, Cols: []*Vector{v, x}}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				curs, err := seg.ScanCursors([]string{"x"}, []Pred{pred}, 1)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for {
					batch, err := curs[0].Next(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					if batch == nil {
						break
					}
					rows += batch.Len()
				}
				curs[0].Close()
				if rows != nblocks*DefaultBlockRows/8 {
					b.Fatalf("%d rows match", rows)
				}
			}
		})
	}
}

// BenchmarkScoreWindow is the score statement's scan of one segment: a
// 256-id window (id >= lo AND id < lo+256) inside one 4,096-row block of a
// DELTA id column, 16 blocks and a 1,000-row tail, the window moving every
// call; it projects one PLAIN FLOAT column at the window's rows. A fresh
// cursor a call, as a statement's cursors are.
func BenchmarkScoreWindow(b *testing.B) {
	const blocks, tail, window = 16, 1000, 256
	schema := Schema{{Name: "id", Type: TypeInt64}, {Name: "x", Type: TypeFloat64}}
	seg := NewSegment(schema, DefaultBlockRows)
	batch := NewBatch(schema)
	for i := 0; i < blocks*DefaultBlockRows+tail; i++ {
		if err := batch.AppendRow(int64(i), float64(i%1021)/1021); err != nil {
			b.Fatal(err)
		}
	}
	if err := seg.Append(batch); err != nil {
		b.Fatal(err)
	}
	if enc := Encoding(seg.sealed[0][0].data[1]); enc != EncDelta {
		b.Fatalf("ids sealed as encoding %d", enc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%blocks*DefaultBlockRows + i*7919%(DefaultBlockRows-window))
		curs, err := seg.ScanCursors([]string{"x"}, []Pred{{Col: "id", Op: OpGE, Val: lo}, {Col: "id", Op: OpLT, Val: lo + window}}, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			out, err := curs[0].Next(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if out == nil {
				break
			}
			rows += out.Len()
		}
		curs[0].Close()
		if rows != window {
			b.Fatalf("the window at %d scanned %d rows", lo, rows)
		}
	}
}
