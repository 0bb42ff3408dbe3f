package vft

import (
	"context"
	"math"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/faults"
)

// abSchema is the three-column test schema used by the byte-exactness tests.
func abSchema() colstore.Schema {
	return colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeFloat64},
	}
}

// TestChaosPooledTransferByteExact loads the same table twice — once clean,
// once with 5% of sends dropping their ack — with buffer/batch pooling live
// on both paths. A retransmission must never observe a recycled buffer, so
// the two frames must agree bit for bit, partition by partition.
func TestChaosPooledTransferByteExact(t *testing.T) {
	db, c, hub := setup(t, 3, 3)
	loadTestTable(t, db, 2000)
	cols := []string{"id", "a", "b"}

	clean, _, err := LoadContext(context.Background(), db, c, hub, "mytable", cols, PolicyLocality, 64)
	if err != nil {
		t.Fatal(err)
	}

	in := faults.New(42)
	in.MustArm(faults.Rule{Site: faults.SiteVFTSend, Kind: faults.Error, Prob: 0.05})
	faults.Install(in)
	defer faults.Install(nil)

	retrans0 := mRetransmits.Value()
	chaos, _, err := LoadContext(context.Background(), db, c, hub, "mytable", cols, PolicyLocality, 64)
	if err != nil {
		t.Fatalf("load under 5%% send faults should recover: %v", err)
	}
	faults.Install(nil)
	if mRetransmits.Value() == retrans0 {
		t.Fatal("no retransmits recorded; the chaos run exercised nothing")
	}

	if clean.NPartitions() != chaos.NPartitions() {
		t.Fatalf("partition counts differ: %d vs %d", clean.NPartitions(), chaos.NPartitions())
	}
	for p := 0; p < clean.NPartitions(); p++ {
		want, err := clean.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := chaos.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() != got.Len() {
			t.Fatalf("partition %d: %d rows clean vs %d under chaos", p, want.Len(), got.Len())
		}
		for ci, wc := range want.Cols {
			gc := got.Cols[ci]
			for r := 0; r < want.Len(); r++ {
				switch wc.Type {
				case colstore.TypeInt64:
					if wc.Ints[r] != gc.Ints[r] {
						t.Fatalf("partition %d col %d row %d: %d vs %d", p, ci, r, wc.Ints[r], gc.Ints[r])
					}
				case colstore.TypeFloat64:
					if math.Float64bits(wc.Floats[r]) != math.Float64bits(gc.Floats[r]) {
						t.Fatalf("partition %d col %d row %d: %x vs %x",
							p, ci, r, math.Float64bits(wc.Floats[r]), math.Float64bits(gc.Floats[r]))
					}
				}
			}
		}
	}
	if hub.Sessions() != 0 {
		t.Fatal("chaos load leaked a session")
	}
}

// TestEncodeChunkIntoMatchesEncodeChunk pins the append-into form to the
// allocating form byte for byte, including when the destination already
// carries leftover capacity from the pool.
func TestEncodeChunkIntoMatchesEncodeChunk(t *testing.T) {
	schema := abSchema()
	b := colstore.NewBatch(schema)
	for i := 0; i < 300; i++ {
		_ = b.AppendRow(int64(i), float64(i)*0.25, -float64(i))
	}
	want, err := EncodeChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	// A dirty, non-empty destination: EncodeChunkInto must append from len 0
	// of whatever it is given.
	dst := make([]byte, 0, 7)
	got, err := EncodeChunkInto(dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("EncodeChunkInto differs from EncodeChunk: %d vs %d bytes", len(got), len(want))
	}
	// And through the pool, as the exporter uses it.
	pooled, err := EncodeChunkInto(getBuf(), b)
	if err != nil {
		t.Fatal(err)
	}
	if string(pooled) != string(want) {
		t.Fatal("pooled EncodeChunkInto differs from EncodeChunk")
	}
	putBuf(pooled)
}

// TestSendDoesNotRetainMsg verifies the eager-decode contract that makes
// pooled frame buffers safe: once Send returns, the caller may scribble over
// the message bytes without corrupting the staged rows.
func TestSendDoesNotRetainMsg(t *testing.T) {
	_, c, hub := setup(t, 2, 2)
	frame, err := newFrameForTest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := hub.open(frame, idSchema(), PolicyLocality, hub)
	msg := encodeIDs(t, 10, 20, 30)
	if err := hub.Send(id, 0, OrderKey(0, 0, 0), msg, 3, 0); err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		msg[i] = 0xAA
	}
	if err := hub.Send(id, 1, OrderKey(1, 0, 0), encodeIDs(t, 40), 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.finalize(context.Background(), id, c); err != nil {
		t.Fatal(err)
	}
	b, err := frame.Part(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30}
	for i, v := range want {
		if b.Cols[0].Ints[i] != v {
			t.Fatalf("row %d = %d after caller scribbled on msg, want %d", i, b.Cols[0].Ints[i], v)
		}
	}
}

// TestPoolHitTelemetry checks that repeated loads actually recycle buffers
// and batches: the second load must record pool hits.
func TestPoolHitTelemetry(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 600)
	if _, _, err := LoadContext(context.Background(), db, c, hub, "mytable", []string{"id"}, PolicyLocality, 64); err != nil {
		t.Fatal(err)
	}
	hits0 := mPoolHit.Value()
	if _, _, err := LoadContext(context.Background(), db, c, hub, "mytable", []string{"id"}, PolicyLocality, 64); err != nil {
		t.Fatal(err)
	}
	if mPoolHit.Value() == hits0 {
		t.Fatal("second load recorded no pool hits; pooling is not wired in")
	}
}
