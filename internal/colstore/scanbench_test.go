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
