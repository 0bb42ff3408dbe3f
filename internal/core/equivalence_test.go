package core

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/vft"
)

// collectSorted gathers one int64 column across all partitions, sorted —
// the multiset fingerprint used for loader equivalence.
func collectSorted(t *testing.T, frame *darray.DFrame, col string) []int64 {
	t.Helper()
	var out []int64
	for p := 0; p < frame.NPartitions(); p++ {
		b, err := frame.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		i := b.Schema.ColIndex(col)
		out = append(out, b.Cols[i].Ints...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Property: for random table sizes, segmentations, policies and connection
// counts, every loader (parallel ODBC, VFT locality, VFT uniform, VFT over
// TCP) delivers exactly the same multiset of rows — no loss, duplication or
// corruption on any path.
func TestQuickLoaderEquivalence(t *testing.T) {
	iter := 0
	f := func(seed int64, sizeRaw uint16, hashSeg bool, connsRaw uint8) bool {
		iter++
		rows := int(sizeRaw%2000) + 50
		conns := int(connsRaw%6) + 1
		s, err := Start(Config{DBNodes: 3, DRWorkers: 3, InstancesPerWorker: 2, BlockRows: 64, UseTCPTransfer: true})
		if err != nil {
			return false
		}
		defer s.Close()
		seg := "SEGMENTED BY ROUND ROBIN"
		if hashSeg {
			seg = "SEGMENTED BY HASH(id)"
		}
		table := fmt.Sprintf("t%d", iter)
		if err := s.ExecContext(context.Background(), fmt.Sprintf(`CREATE TABLE %s (id INTEGER, v FLOAT) %s`, table, seg)); err != nil {
			return false
		}
		schema := colstore.Schema{
			{Name: "id", Type: colstore.TypeInt64},
			{Name: "v", Type: colstore.TypeFloat64},
		}
		b := colstore.NewBatch(schema)
		for i := 0; i < rows; i++ {
			if err := b.AppendRow(int64(i), float64(seed%1000)+float64(i)); err != nil {
				return false
			}
		}
		if err := s.DB.Load(table, b); err != nil {
			return false
		}

		want := make([]int64, rows)
		for i := range want {
			want[i] = int64(i)
		}
		check := func(frame *darray.DFrame) bool {
			got := collectSorted(t, frame, "id")
			if len(got) != rows {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}

		// Parallel ODBC.
		of, err := s.LoadODBCContext(context.Background(), table, nil, conns)
		if err != nil || !check(of) {
			return false
		}
		// VFT locality over TCP (session was started with UseTCPTransfer).
		lf, _, err := s.DB2DFrameContext(context.Background(), table, nil, vft.PolicyLocality)
		if err != nil || !check(lf) {
			return false
		}
		// VFT uniform over TCP.
		uf, _, err := s.DB2DFrameContext(context.Background(), table, nil, vft.PolicyUniform)
		if err != nil || !check(uf) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
