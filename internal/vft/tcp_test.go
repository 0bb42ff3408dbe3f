package vft

import (
	"context"
	"strings"
	"testing"
	"time"

	"verticadr/internal/telemetry"
)

func TestLoadOverTCPLocality(t *testing.T) {
	db, c, hub := setup(t, 3, 3)
	loadTestTable(t, db, 1500)
	svc, err := ServeTCP(hub, c.NumWorkers())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if len(svc.Addrs()) != 3 {
		t.Fatalf("addrs = %v", svc.Addrs())
	}
	frame, stats, err := LoadTCPContext(context.Background(), db, c, hub, svc, "mytable", nil, PolicyLocality, 128)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Rows() != 1500 {
		t.Fatalf("rows = %d", frame.Rows())
	}
	if stats.Rows != 1500 || stats.Chunks == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Every row arrived exactly once over the sockets.
	ids := collectIDs(t, frame)
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row multiset broken at %d: %d", i, id)
		}
	}
	// Partition sizes still mirror the segmentation (locality over TCP).
	segSizes, _ := db.SegmentSizes("mytable")
	for i, want := range segSizes {
		got, _, _ := frame.PartitionSize(i)
		if got != want {
			t.Fatalf("partition %d = %d want %d", i, got, want)
		}
	}
}

func TestLoadOverTCPUniform(t *testing.T) {
	db, c, hub := setup(t, 2, 4)
	loadTestTable(t, db, 800)
	svc, err := ServeTCP(hub, c.NumWorkers())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	frame, stats, err := LoadTCPContext(context.Background(), db, c, hub, svc, "mytable", nil, PolicyUniform, 50)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Rows() != 800 {
		t.Fatalf("rows = %d", frame.Rows())
	}
	for i, s := range stats.PartSizes {
		if s < 100 || s > 300 {
			t.Fatalf("uniform partition %d = %d (sizes %v)", i, s, stats.PartSizes)
		}
	}
}

func TestTCPClientErrors(t *testing.T) {
	hub := NewHub()
	svc, err := ServeTCP(hub, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	client := newTCPSender(svc.Addrs())
	defer client.Close()

	// Unknown session propagates the remote error through the coded reply.
	err = client.Send("no-such-session", 0, 0, []byte("x"), 1, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("want remote unknown-session error, got %v", err)
	}
	// Out-of-range partition fails locally.
	if err := client.Send("s", 5, 0, nil, 0, 0); err == nil {
		t.Fatal("bad partition should fail")
	}
	// Dead address fails to dial.
	dead := newTCPSender([]string{"127.0.0.1:1"})
	defer dead.Close()
	if err := dead.Send("s", 0, 0, []byte("x"), 1, 0); err == nil {
		t.Fatal("dial to dead address should fail")
	}
}

func TestTCPServiceValidation(t *testing.T) {
	if _, err := ServeTCP(NewHub(), 0); err == nil {
		t.Fatal("0 workers should fail")
	}
	hub := NewHub()
	svc, _ := ServeTCP(hub, 2)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 600)
	svc, err := ServeTCP(hub, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Two consecutive loads through the same service: connection reuse must
	// not corrupt framing.
	for i := 0; i < 2; i++ {
		frame, _, err := LoadTCPContext(context.Background(), db, c, hub, svc, "mytable", nil, PolicyLocality, 64)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if frame.Rows() != 600 {
			t.Fatalf("load %d rows = %d", i, frame.Rows())
		}
	}
}

// The DR worker listeners count into series of their own: a transfer over
// TCP moves vft_wire_bytes_total and vft_proto_requests_total by at least its
// messages, and leaves the serving protocol's server_* series as they were.
func TestTCPTransferCountsIntoItsOwnSeries(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 600)
	svc, err := ServeTCP(hub, c.NumWorkers())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	reg := telemetry.Default()
	counters := []*telemetry.Counter{
		reg.Counter("server_wire_bytes_total", telemetry.L("dir", "in")),
		reg.Counter("server_wire_bytes_total", telemetry.L("dir", "out")),
		reg.Counter("server_proto_requests_total"),
		reg.Counter("vft_wire_bytes_total", telemetry.L("dir", "in")),
		reg.Counter("vft_proto_requests_total"),
	}
	before := make([]int64, len(counters))
	for i, m := range counters {
		before[i] = m.Value()
	}
	_, stats, err := LoadTCPContext(context.Background(), db, c, hub, svc, "mytable", nil, PolicyLocality, 64)
	if err != nil {
		t.Fatal(err)
	}
	moved := make([]int64, len(counters))
	for i, m := range counters {
		moved[i] = m.Value() - before[i]
	}
	if moved[0] != 0 || moved[1] != 0 || moved[2] != 0 {
		t.Fatalf("a TCP transfer moved server_wire_bytes_total by in %d, out %d and server_proto_requests_total by %d", moved[0], moved[1], moved[2])
	}
	if moved[3] < int64(stats.Bytes) || moved[4] < int64(stats.Chunks) {
		t.Fatalf("a TCP transfer of %d messages, %d bytes moved vft_wire_bytes_total{dir=\"in\"} by %d and vft_proto_requests_total by %d",
			stats.Chunks, stats.Bytes, moved[3], moved[4])
	}
}
