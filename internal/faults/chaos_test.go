package faults_test

import (
	"bytes"
	"context"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
	"verticadr/internal/vertica"
	"verticadr/internal/vft"
)

const (
	chaosNodes = 4
	chaosRows  = 2000
	chaosPsize = 32
)

// chaosLoad runs one complete VFT transfer of a freshly built table and
// returns each partition re-encoded as canonical chunk bytes. Chunk assembly
// is ordered by deterministic sequence keys, so two loads of the same table
// must return byte-identical partitions — even when one of them ran under
// fault injection.
func chaosLoad(t *testing.T, overTCP bool) [][]byte {
	t.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: chaosNodes, BlockRows: 128, UDFInstancesPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `CREATE TABLE chaos (id INTEGER, a FLOAT, b FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeFloat64},
	}
	batch := colstore.NewBatch(schema)
	for i := 0; i < chaosRows; i++ {
		if err := batch.AppendRow(int64(i), float64(i)*0.25, float64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Load("chaos", batch); err != nil {
		t.Fatal(err)
	}

	c, err := dr.Start(dr.Config{Workers: chaosNodes, InstancesPerWorker: 2, TaskRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	hub := vft.NewHub()
	if err := vft.Register(db, hub); err != nil {
		t.Fatal(err)
	}

	var frame *darray.DFrame
	if overTCP {
		svc, err := vft.ServeTCP(hub, chaosNodes)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		frame, _, err = vft.LoadTCPContext(context.Background(), db, c, hub, svc, "chaos", nil, vft.PolicyLocality, chaosPsize)
		if err != nil {
			t.Fatalf("chaotic load did not recover: %v", err)
		}
	} else {
		frame, _, err = vft.LoadContext(context.Background(), db, c, hub, "chaos", nil, vft.PolicyLocality, chaosPsize)
		if err != nil {
			t.Fatalf("chaotic load did not recover: %v", err)
		}
	}
	if hub.Sessions() != 0 {
		t.Fatalf("load left %d sessions behind", hub.Sessions())
	}

	out := make([][]byte, frame.NPartitions())
	for p := range out {
		b, err := frame.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := vft.EncodeChunk(b)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = enc
	}
	return out
}

// TestChaosLoadByteExactUnderFaults is the headline chaos scenario of this
// package: load a table over VFT while 5% of sends fail after staging (lost
// acks forcing retransmission), a worker is killed mid-conversion, and
// transient task errors force in-place retries. The recovered frame must be
// byte-identical to a clean load, and every recovery mechanism must have
// actually fired.
func TestChaosLoadByteExactUnderFaults(t *testing.T) {
	want := chaosLoad(t, false)

	reg := telemetry.Default()
	retrans0 := reg.Counter("vft_retransmits_total").Value()
	dups0 := reg.Counter("vft_dup_chunks_total").Value()
	retries0 := reg.Counter("dr_task_retries_total").Value()
	failovers0 := reg.Counter("dr_task_failovers_total").Value()
	deaths0 := reg.Counter("dr_worker_failures_total").Value()

	in := faults.New(42)
	// Exactly 1 in 20 sends (5%) fails after staging.
	in.MustArm(faults.Rule{Site: faults.SiteVFTSend, Kind: faults.Error, EveryN: 20})
	// The first conversion task's worker dies.
	in.MustArm(faults.Rule{Site: faults.SiteDRTask, Kind: faults.Crash, EveryN: 1, Limit: 1})
	// Two transient conversion failures exercise in-place retry.
	in.MustArm(faults.Rule{Site: faults.SiteDRTask, Kind: faults.Error, EveryN: 3, Limit: 2})
	faults.Install(in)
	defer faults.Install(nil)

	got := chaosLoad(t, false)

	if len(got) != len(want) {
		t.Fatalf("partition count %d != %d", len(got), len(want))
	}
	for p := range want {
		if !bytes.Equal(got[p], want[p]) {
			t.Fatalf("partition %d not byte-identical after recovery (%d vs %d bytes)",
				p, len(got[p]), len(want[p]))
		}
	}

	if n := reg.Counter("vft_retransmits_total").Value() - retrans0; n == 0 {
		t.Fatal("vft_retransmits_total did not move — send faults never exercised retransmission")
	}
	if n := reg.Counter("vft_dup_chunks_total").Value() - dups0; n == 0 {
		t.Fatal("vft_dup_chunks_total did not move — dedup never absorbed a duplicate")
	}
	if n := reg.Counter("dr_task_retries_total").Value() - retries0; n == 0 {
		t.Fatal("dr_task_retries_total did not move — transient task errors never retried")
	}
	if n := reg.Counter("dr_task_failovers_total").Value() - failovers0; n == 0 {
		t.Fatal("dr_task_failovers_total did not move — dead worker's task never failed over")
	}
	if n := reg.Counter("dr_worker_failures_total").Value() - deaths0; n != 1 {
		t.Fatalf("dr_worker_failures_total moved by %d, want exactly 1 crash", n)
	}
	for _, s := range in.Stats() {
		if s.Fires == 0 {
			t.Fatalf("armed rule never fired: %+v (stats: %v)", s, in.String())
		}
	}
}

// TestChaosLoadOverTCP runs the same drops across real sockets: the injected
// failure comes back to the sender as a remote error reply and the TCP
// client's reconnect/retry path carries the retransmission.
func TestChaosLoadOverTCP(t *testing.T) {
	want := chaosLoad(t, true)

	in := faults.New(7)
	in.MustArm(faults.Rule{Site: faults.SiteVFTSend, Kind: faults.Error, EveryN: 20})
	faults.Install(in)
	defer faults.Install(nil)

	got := chaosLoad(t, true)
	for p := range want {
		if !bytes.Equal(got[p], want[p]) {
			t.Fatalf("partition %d not byte-identical after TCP recovery", p)
		}
	}
}

// TestChaosProfileLoadSucceeds runs the exact injector the cmd binaries
// install behind -chaos, proving the default profile is survivable end to
// end (it must perturb, not break, the demo pipeline).
func TestChaosProfileLoadSucceeds(t *testing.T) {
	faults.Install(faults.Chaos(1))
	defer faults.Install(nil)
	got := chaosLoad(t, false)
	rows := 0
	for _, enc := range got {
		b, err := vft.DecodeChunk(enc, colstore.Schema{
			{Name: "id", Type: colstore.TypeInt64},
			{Name: "a", Type: colstore.TypeFloat64},
			{Name: "b", Type: colstore.TypeFloat64},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows += b.Len()
	}
	if rows != chaosRows {
		t.Fatalf("chaos-profile load produced %d rows, want %d", rows, chaosRows)
	}
}
