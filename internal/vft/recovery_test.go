package vft

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
	"verticadr/internal/wire"
)

func idSchema() colstore.Schema {
	return colstore.Schema{{Name: "id", Type: colstore.TypeInt64}}
}

func encodeIDs(t *testing.T, ids ...int64) []byte {
	t.Helper()
	b := colstore.NewBatch(idSchema())
	for _, id := range ids {
		if err := b.AppendRow(id); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := EncodeChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestHubSendIdempotent(t *testing.T) {
	_, c, hub := setup(t, 2, 2)
	frame, err := newFrameForTest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := hub.open(frame, idSchema(), PolicyLocality, hub)
	msg := encodeIDs(t, 1, 2, 3)
	seq := OrderKey(0, 0, 0)

	dups0 := mDupChunks.Value()
	// Send the same (part, seq) three times — a retransmission after a lost
	// ack. Only the first is staged; the rest are acknowledged silently.
	for i := 0; i < 3; i++ {
		if err := hub.Send(id, 0, seq, [][]byte{msg}, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Send(id, 0, OrderKey(0, 0, 1), [][]byte{encodeIDs(t, 4)}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := mDupChunks.Value() - dups0; got != 2 {
		t.Fatalf("dup chunks = %d, want 2", got)
	}
	stats, err := hub.finalize(context.Background(), id, c)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicates were absorbed: 4 rows total, not 10.
	if stats.Rows != 4 || stats.Chunks != 2 {
		t.Fatalf("stats = %d rows / %d chunks, want 4 / 2", stats.Rows, stats.Chunks)
	}
	b, err := frame.Part(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 4 {
		t.Fatalf("partition 0 has %d rows, want 4", b.Len())
	}
}

func TestAbortReleasesSession(t *testing.T) {
	_, c, hub := setup(t, 2, 2)
	frame, _ := newFrameForTest(c, 2)
	id := hub.open(frame, idSchema(), PolicyLocality, hub)
	if err := hub.Send(id, 0, 0, [][]byte{encodeIDs(t, 1)}, 1, 0); err != nil {
		t.Fatal(err)
	}
	aborted0 := mAborted.Value()
	if hub.Sessions() != 1 {
		t.Fatalf("sessions = %d", hub.Sessions())
	}
	if !hub.Abort(id) {
		t.Fatal("abort of live session reported false")
	}
	if hub.Sessions() != 0 {
		t.Fatal("session survived abort")
	}
	if hub.Abort(id) {
		t.Fatal("abort of dead session reported true")
	}
	if err := hub.Send(id, 0, 1, [][]byte{encodeIDs(t, 2)}, 1, 0); err == nil {
		t.Fatal("send to aborted session should fail")
	}
	if got := mAborted.Value() - aborted0; got != 1 {
		t.Fatalf("vft_sessions_aborted_total delta = %d, want 1", got)
	}
}

func TestCorruptChunkRejectedAtSend(t *testing.T) {
	_, c, hub := setup(t, 2, 2)
	frame, _ := newFrameForTest(c, 2)
	id := hub.open(frame, idSchema(), PolicyLocality, hub)
	// Chunks decode at arrival now, so garbage is rejected by Send itself
	// (the sender sees the error and can retransmit or fail the export)
	// instead of poisoning the session until finalize.
	if err := hub.Send(id, 0, 0, [][]byte{{0xff, 0xee, 0xdd}}, 1, 0); err == nil {
		t.Fatal("send of a corrupt chunk should fail")
	}
	// The rejected chunk is not staged: the same (part, seq) can be resent
	// with valid bytes and the session finalizes normally.
	if err := hub.Send(id, 0, 0, [][]byte{encodeIDs(t, 7)}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := hub.Send(id, 1, OrderKey(1, 0, 0), [][]byte{encodeIDs(t, 8)}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.finalize(context.Background(), id, c); err != nil {
		t.Fatal(err)
	}
	if hub.Sessions() != 0 {
		t.Fatal("finalize leaked the session")
	}
}

// A message is a run of chunks and carries its sender's row count, which
// Stats.Rows trusts: a run that decodes to another count, or stops inside a
// chunk, is refused at arrival — in process and over a socket — with nothing
// staged or counted, and the session and the listener carry on. So is a
// vft.send that is not one message under a readable header.
func TestMiscountedMessageRejectedAtSend(t *testing.T) {
	_, c, hub := setup(t, 2, 2)
	frame, _ := newFrameForTest(c, 2)
	id := hub.open(frame, idSchema(), PolicyLocality, hub)
	svc, err := ServeTCP(hub, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sender := newTCPSender(svc.Addrs())
	defer sender.Close()

	run := append(encodeIDs(t, 1, 2), encodeIDs(t, 3)...) // two chunks, three rows
	for name, bad := range map[string]struct {
		msg  []byte
		rows int
	}{
		"declares a row too many":  {run, 4},
		"declares a row too few":   {run, 2},
		"ends inside a chunk":      {run[:len(run)-1], 3},
		"a stray byte after a run": {append(append([]byte(nil), run...), 1), 3},
		"no chunk at all":          {nil, 0},
	} {
		for _, sink := range []ChunkSink{hub, sender} {
			if err := sink.Send(id, 0, OrderKey(0, 0, 0), [][]byte{bad.msg}, bad.rows, 0); err == nil {
				t.Fatalf("%s: %T accepted the message", name, sink)
			}
		}
	}
	// Malformed requests on one connection: each is answered with a coded
	// error and the connection keeps serving.
	conn, err := wire.Dial(svc.Addrs()[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	header := sendHeader{Session: id, Part: 0, Seq: OrderKey(0, 0, 0), Rows: 3}
	for name, bad := range map[string]struct {
		payload []byte
		bodies  [][]byte
	}{
		"no body":    {header.appendTo(nil), nil},
		"two bodies": {header.appendTo(nil), [][]byte{run[:len(run)/2], run[len(run)/2:]}},
		"bad header": {[]byte(`{"part":"zero"}`), [][]byte{run}},
	} {
		_, _, err := conn.Call(ctx, opSend, bad.payload, bad.bodies)
		if err == nil || verr.Code(err) != verr.CodeInternal || errors.Is(err, verr.ErrNodeDown) || errors.Is(err, verr.ErrClosed) {
			t.Fatalf("%s: err = %v, want a coded refusal", name, err)
		}
	}
	// Nothing of the refused messages was staged under their (part, seq):
	// the well-formed message is, over the same connection, and a pooled
	// sender's retransmission of it is absorbed.
	if _, _, err := conn.Call(ctx, opSend, header.appendTo(nil), [][]byte{run}); err != nil {
		t.Fatalf("connection unusable after the refusals: %v", err)
	}
	if err := sender.Send(id, 0, OrderKey(0, 0, 0), [][]byte{run}, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := hub.Send(id, 1, OrderKey(1, 0, 0), [][]byte{encodeIDs(t, 8)}, 1, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := hub.finalize(context.Background(), id, c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 4 || stats.Chunks != 2 {
		t.Fatalf("stats = %d rows / %d messages, want 4 / 2", stats.Rows, stats.Chunks)
	}
	b, err := frame.Part(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Cols[0].Ints; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("partition 0 holds %v, want [1 2 3]", got)
	}
}

func TestFinalizeErrorRemovesSession(t *testing.T) {
	_, c, hub := setup(t, 2, 2)
	frame, _ := newFrameForTest(c, 2)
	// Pre-fill partition 1 with a different schema: the frame pins its
	// schema to the first fill, so finalize's Fill of the session's chunks
	// fails — and the errored finalize must still release the session.
	pre := colstore.NewBatch(colstore.Schema{{Name: "x", Type: colstore.TypeFloat64}})
	if err := pre.AppendRow(3.25); err != nil {
		t.Fatal(err)
	}
	if err := frame.Fill(1, pre); err != nil {
		t.Fatal(err)
	}
	id := hub.open(frame, idSchema(), PolicyLocality, hub)
	if err := hub.Send(id, 0, 0, [][]byte{encodeIDs(t, 1)}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.finalize(context.Background(), id, c); err == nil {
		t.Fatal("finalize into a pre-filled partition should fail")
	}
	if hub.Sessions() != 0 {
		t.Fatal("errored finalize leaked the session")
	}
}

func TestLoadAbortsSessionOnExportFailure(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 100)
	// Replace the hub service with something that is not a ChunkSink, so the
	// export query fails mid-transfer.
	db.RegisterService(ServiceName, "not a sink")
	defer db.RegisterService(ServiceName, hub)
	if _, _, err := LoadContext(context.Background(), db, c, hub, "mytable", nil, PolicyLocality, 0); err == nil {
		t.Fatal("export through a bogus sink should fail")
	}
	if hub.Sessions() != 0 {
		t.Fatalf("failed load leaked %d sessions", hub.Sessions())
	}
}

// cancelingSink cancels its load's context at the first message, then
// stages it like the hub.
type cancelingSink struct {
	*Hub
	cancel context.CancelFunc
}

func (s cancelingSink) Send(id string, part int, seq uint64, msg [][]byte, rows int, dbTime time.Duration) error {
	s.cancel()
	return s.Hub.Send(id, part, seq, msg, rows, dbTime)
}

// cancelAfterExport is a database whose export query succeeds, then cancels
// its load's context before the load finalizes.
type cancelAfterExport struct {
	DB
	cancel context.CancelFunc
}

func (d cancelAfterExport) ExecContext(ctx context.Context, sql string) error {
	err := d.DB.ExecContext(ctx, sql)
	d.cancel()
	return err
}

// A load owns its transfer session from open to end: canceled while the
// export streams or while the workers finalize, it fails and leaves the hub
// holding no session, so nothing needs reaping later.
func TestCanceledLoadLeavesNoSession(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 20000)

	ctx, cancel := context.WithCancel(context.Background())
	_, _, err := load(ctx, db, c, hub, cancelingSink{hub, cancel}, "mytable", nil, PolicyLocality, 256)
	if err == nil || !strings.Contains(err.Error(), "export query failed") {
		t.Fatalf("a load canceled during its export: err = %v, want the export's failure", err)
	}
	if n := hub.Sessions(); n != 0 {
		t.Fatalf("a load canceled during its export left %d sessions", n)
	}

	ctx, cancel = context.WithCancel(context.Background())
	_, _, err = load(ctx, cancelAfterExport{db, cancel}, c, hub, hub, "mytable", nil, PolicyLocality, 256)
	if err == nil || !errors.Is(err, context.Canceled) && !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("a load canceled before finalize: err = %v, want a cancellation", err)
	}
	if n := hub.Sessions(); n != 0 {
		t.Fatalf("a load canceled before finalize left %d sessions", n)
	}
}

// TestInjectedSendFaultRecovered drives the in-process path with vft.send
// errors armed: flush's retransmit loop resends, the hub's dedup absorbs the
// duplicates, and the loaded frame is complete and correct.
func TestInjectedSendFaultRecovered(t *testing.T) {
	in := faults.New(11)
	in.MustArm(faults.Rule{Site: faults.SiteVFTSend, Kind: faults.Error, EveryN: 3})
	faults.Install(in)
	defer faults.Install(nil)

	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 1000)
	dups0 := mDupChunks.Value()
	retrans0 := mRetransmits.Value()
	frame, stats, err := LoadContext(context.Background(), db, c, hub, "mytable", []string{"id"}, PolicyLocality, 64)
	if err != nil {
		t.Fatalf("load under send faults should recover: %v", err)
	}
	if stats.Rows != 1000 {
		t.Fatalf("stats.Rows = %d", stats.Rows)
	}
	ids := collectIDs(t, frame)
	if len(ids) != 1000 {
		t.Fatalf("got %d rows after recovery", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row %d missing or duplicated (got %d)", i, id)
		}
	}
	if mRetransmits.Value() == retrans0 {
		t.Fatal("no retransmits recorded despite armed send faults")
	}
	if mDupChunks.Value() == dups0 {
		t.Fatal("no duplicate chunks absorbed despite retransmission")
	}
	if hub.Sessions() != 0 {
		t.Fatal("recovered load leaked a session")
	}
}

// TestLoadTCPRecoversFromSendFaults is the same chaos over real sockets: the
// injected post-staging failure travels back as a coded error reply, the
// export's send loop retransmits on a fresh connection, and dedup keeps the
// frame exact.
func TestLoadTCPRecoversFromSendFaults(t *testing.T) {
	in := faults.New(5)
	in.MustArm(faults.Rule{Site: faults.SiteVFTSend, Kind: faults.Error, EveryN: 4})
	faults.Install(in)
	defer faults.Install(nil)

	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 800)
	svc, err := ServeTCP(hub, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	retrans0 := mRetransmits.Value()
	frame, _, err := LoadTCPContext(context.Background(), db, c, hub, svc, "mytable", []string{"id"}, PolicyLocality, 64)
	if err != nil {
		t.Fatalf("TCP load under send faults should recover: %v", err)
	}
	ids := collectIDs(t, frame)
	if len(ids) != 800 {
		t.Fatalf("got %d rows after recovery", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row %d missing or duplicated (got %d)", i, id)
		}
	}
	if mRetransmits.Value() == retrans0 {
		t.Fatal("no retransmits recorded despite armed send faults")
	}
}

func TestTCPClientDeadline(t *testing.T) {
	// A listener that accepts and then goes silent: the ack never arrives,
	// so the send's context must bound it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow bytes forever, never reply.
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()

	sender := newTCPSender([]string{ln.Addr().String()})
	defer sender.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = sender.send(ctx, sendHeader{Session: "s", Rows: 1}, [][]byte{[]byte("x")})
	if !errors.Is(err, verr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send to a silent receiver: err = %v, want a canceled deadline", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline did not bound the send: %v", d)
	}
}

func TestTCPClientNeverPoolsFailedConns(t *testing.T) {
	// Each exchange fails (no ack); the connection must be closed, not
	// pooled, so the next send dials fresh.
	accepts := make(chan net.Conn, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts <- conn
			// Close immediately: the client's ack read fails.
			conn.Close()
		}
	}()

	sender := newTCPSender([]string{ln.Addr().String()})
	defer sender.Close()
	for i := 0; i < 2; i++ {
		if err := sender.Send("s", 0, 0, [][]byte{[]byte("x")}, 1, 0); err == nil {
			t.Fatal("send against a closing receiver should fail")
		}
	}
	if got := len(accepts); got != 2 {
		t.Fatalf("receiver saw %d connections, want 2 (one per send)", got)
	}
}

// The export's send loop is the only retry: a receiver that refuses every
// vft.send is offered each message exactly sendRetries times, and every
// offer after the first counts as a retransmission.
func TestSendRetriedOnlyByExportLoop(t *testing.T) {
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 200)
	var mu sync.Mutex
	offers := map[uint64]int{}
	svc := &TCPService{}
	defer svc.Close()
	for i := 0; i < 2; i++ {
		l, err := wire.Listen("127.0.0.1:0", "vft", func(_ context.Context, req *wire.Request, _ [][]byte, _ *wire.Reply) error {
			var m sendHeader
			if err := m.decode(req.Ext); err == nil {
				mu.Lock()
				offers[m.Seq]++
				mu.Unlock()
			}
			return errors.New("refused")
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.listeners = append(svc.listeners, l)
	}
	svc.sender = newTCPSender(svc.Addrs())
	retrans0 := mRetransmits.Value()
	if _, _, err := LoadTCPContext(context.Background(), db, c, hub, svc, "mytable", []string{"id"}, PolicyLocality, 64); err == nil {
		t.Fatal("a load into a refusing receiver succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(offers) == 0 {
		t.Fatal("no message reached the receiver")
	}
	for seq, n := range offers {
		if n != sendRetries {
			t.Fatalf("message %x offered %d times, want %d", seq, n, sendRetries)
		}
	}
	if got, want := mRetransmits.Value()-retrans0, int64((sendRetries-1)*len(offers)); got != want {
		t.Fatalf("vft_retransmits_total moved by %d for %d messages, want %d", got, len(offers), want)
	}
	if hub.Sessions() != 0 {
		t.Fatal("failed load leaked a session")
	}
}

// refusingSink refuses every message, counting each offer by its order key.
// It pauses first, so an export that read on while a send was failing would
// show it in the block rows it read.
type refusingSink struct {
	mu     sync.Mutex
	offers map[uint64]int
}

var errRefused = errors.New("refused")

func (r *refusingSink) Send(_ string, _ int, seq uint64, _ [][]byte, _ int, _ time.Duration) error {
	time.Sleep(time.Millisecond)
	r.mu.Lock()
	r.offers[seq]++
	r.mu.Unlock()
	return errRefused
}

// An instance stops at its first message the sink refuses for good: it
// offers that message sendRetries times, reads no block row past it, and
// the load fails with the sink's error.
func TestFailedSendStopsTheInstance(t *testing.T) {
	// Blocks of 64 rows, 12 block rows a node in 3 instances, 2 block rows a
	// message: each instance has several messages to send.
	db, c, hub, _ := mixDB(t, 12*mixBlockRows, 12*mixBlockRows)
	sink := &refusingSink{offers: map[uint64]int{}}
	stored0 := mBlocksStored.Value()
	_, _, err := load(context.Background(), db, c, hub, sink, "mix", nil, PolicyLocality, 2*mixBlockRows)
	if !errors.Is(err, errRefused) {
		t.Fatalf("a load into a refusing sink: err = %v, want the sink's error", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.offers) != 2*3 {
		t.Fatalf("%d instances offered a message, want 6", len(sink.offers))
	}
	for seq, n := range sink.offers {
		if local := seq & (1<<28 - 1); local != 0 {
			t.Fatalf("message %x offered: an instance went past its first message", seq)
		}
		if n != sendRetries {
			t.Fatalf("message %x offered %d times, want %d", seq, n, sendRetries)
		}
	}
	if got, want := mBlocksStored.Value()-stored0, int64(2*len(sink.offers)); got != want {
		t.Fatalf("instances read %d block rows, want %d: 2 each, the rows of the refused message", got, want)
	}
	if hub.Sessions() != 0 {
		t.Fatal("failed load leaked a session")
	}
}

func TestTCPSendRetriesCountTelemetry(t *testing.T) {
	// End-to-end happy path over TCP still pools connections after clean
	// exchanges.
	db, c, hub := setup(t, 2, 2)
	loadTestTable(t, db, 200)
	svc, err := ServeTCP(hub, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	frame, stats, err := LoadTCPContext(context.Background(), db, c, hub, svc, "mytable", nil, PolicyLocality, 64)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Rows() != 200 || stats.Rows != 200 {
		t.Fatalf("rows = %d / %d", frame.Rows(), stats.Rows)
	}
	if telemetry.Default().Counter("vft_transfers_total", telemetry.L("policy", PolicyLocality)).Value() < 1 {
		t.Fatal("transfer not counted")
	}
}
