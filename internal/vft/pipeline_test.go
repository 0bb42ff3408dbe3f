package vft

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/darray"
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
// once with 5% of sends dropping their ack — with buffer pooling live
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
// allocating form byte for byte, including when the destination is a buffer
// reused from an earlier chunk.
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
	// And into a buffer reused, as an export instance reuses its own.
	again, err := EncodeChunkInto(got[:0], b)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(want) {
		t.Fatal("EncodeChunkInto into a reused buffer differs from EncodeChunk")
	}
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
	if err := hub.Send(id, 0, OrderKey(0, 0, 0), [][]byte{msg}, 3, 0); err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		msg[i] = 0xAA
	}
	if err := hub.Send(id, 1, OrderKey(1, 0, 0), [][]byte{encodeIDs(t, 40)}, 1, 0); err != nil {
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

// TestPoolHitTelemetry checks that repeated loads actually recycle message
// buffers: the second load must record pool hits.
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

// TestMessageBufferCounters pins what vft_pool_hit_total and
// vft_pool_miss_total count: an export instance allocates its message buffer
// for its first message, a miss, and reuses it for every later one, a hit, so
// an in-process transfer of N messages over I instances counts I misses and
// N-I hits.
func TestMessageBufferCounters(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 600)
	sink := &recordingSink{hub: hub}
	hits, misses := mPoolHit.Value(), mPoolMiss.Value()
	if _, _, err := load(context.Background(), db, c, hub, sink, "mytable", []string{"id", "a"}, PolicyLocality, 64); err != nil {
		t.Fatal(err)
	}
	instances := map[uint64]bool{}
	for _, m := range sink.sent {
		instances[m.seq>>28] = true // the order key's node and instance
	}
	n, i := int64(len(sink.sent)), int64(len(instances))
	if n <= i {
		t.Fatalf("%d messages over %d instances: want instances that send more than one", n, i)
	}
	if got := mPoolMiss.Value() - misses; got != i {
		t.Errorf("%d messages over %d instances counted %d misses, want %d", n, i, got, i)
	}
	if got := mPoolHit.Value() - hits; got != n-i {
		t.Errorf("%d messages over %d instances counted %d hits, want %d", n, i, got, n-i)
	}
}

// columnBits checksums each column of a frame, partitions in order, by its
// values' bits — Float64bits for FLOAT, the two's complement for INTEGER —
// in an order-sensitive sum, so rows that moved between or within
// partitions change it.
func columnBits(t *testing.T, frame *darray.DFrame) []uint64 {
	t.Helper()
	var sums []uint64
	for p := 0; p < frame.NPartitions(); p++ {
		b, err := frame.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		if sums == nil {
			sums = make([]uint64, len(b.Cols))
		}
		for j, col := range b.Cols {
			for _, v := range col.Floats {
				sums[j] = sums[j]*31 + math.Float64bits(v)
			}
			for _, v := range col.Ints {
				sums[j] = sums[j]*31 + uint64(v)
			}
		}
	}
	return sums
}

// failingSink stages a transfer's first n messages through the hub and
// refuses every later one, so the export fails with batches decoded.
type failingSink struct {
	hub *Hub
	n   atomic.Int32
}

func (s *failingSink) Send(id string, part int, seq uint64, msg [][]byte, rows int, dbTime time.Duration) error {
	if s.n.Add(-1) < 0 {
		return errors.New("refused")
	}
	return s.hub.Send(id, part, seq, msg, rows, dbTime)
}

// A frame's partitions are the batches the hub decoded its messages into, so
// nothing may hand those batches to another transfer: later loads of the
// same table — in process, over TCP, and one aborted with messages staged —
// must leave the first frame's bits as they were.
func TestFramesNeverShareStorage(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 2000)
	svc, err := ServeTCP(hub, c.NumWorkers())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	first, _, err := LoadContext(ctx, db, c, hub, "mytable", nil, PolicyLocality, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := columnBits(t, first)
	check := func(step string) {
		t.Helper()
		if got := columnBits(t, first); !slices.Equal(got, want) {
			t.Fatalf("after %s the first frame's column bits are %x, were %x", step, got, want)
		}
	}
	second, _, err := LoadContext(ctx, db, c, hub, "mytable", nil, PolicyLocality, 64)
	if err != nil {
		t.Fatal(err)
	}
	check("a second in-process load")
	overTCP, _, err := LoadTCPContext(ctx, db, c, hub, svc, "mytable", nil, PolicyLocality, 64)
	if err != nil {
		t.Fatal(err)
	}
	check("a load over TCP")
	for name, f := range map[string]*darray.DFrame{"second": second, "TCP": overTCP} {
		if got := columnBits(t, f); !slices.Equal(got, want) {
			t.Fatalf("the %s load's column bits are %x, the first's %x", name, got, want)
		}
	}
	sink := &failingSink{hub: hub}
	sink.n.Store(5)
	if _, _, err := load(ctx, db, c, hub, sink, "mytable", nil, PolicyLocality, 64); err == nil {
		t.Fatal("a load whose sink refused its sixth message succeeded")
	}
	if hub.Sessions() != 0 {
		t.Fatalf("the aborted load left %d sessions", hub.Sessions())
	}
	check("an aborted load")
}
