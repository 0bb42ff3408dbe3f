package vft

import (
	"context"
	"strings"
	"testing"
	"time"
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
