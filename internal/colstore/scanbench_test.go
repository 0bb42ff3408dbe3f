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
