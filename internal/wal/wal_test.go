package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/faults"
)

// collect replays the whole log into (lsn, typ, body) triples.
func collect(t *testing.T, dir string, from uint64) ([]byte, [][]byte, *ReplayStats) {
	t.Helper()
	var types []byte
	var bodies [][]byte
	stats, err := Replay(dir, from, func(lsn uint64, typ byte, body []byte) error {
		types = append(types, typ)
		bodies = append(bodies, append([]byte(nil), body...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return types, bodies, stats
}

func TestAppendCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xab}, 10_000)}
	for i, body := range want {
		if _, err := w.AppendCommit(byte(i+1), body); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	types, bodies, stats := collect(t, dir, 0)
	if len(bodies) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(bodies), len(want))
	}
	for i := range want {
		if types[i] != byte(i+1) || !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if stats.Torn {
		t.Fatal("clean log reported torn")
	}
}

func TestGroupCommitManyWaitersOneLog(t *testing.T) {
	dir := t.TempDir()
	// Every fsync stalls, as on a real disk, so committers pile up behind
	// the one in flight and the batching below is deterministic.
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteWALFsync, Kind: faults.Delay, Delay: 2 * time.Millisecond, EveryN: 1})
	faults.Install(in)
	defer faults.Install(nil)
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 64
	fsyncs := mFsyncs.Value()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.AppendCommit(1, []byte(fmt.Sprintf("rec-%03d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	// Group commit: concurrent committers share fsyncs instead of paying
	// one each (serial cost would be n).
	if got := mFsyncs.Value() - fsyncs; got > n/4 {
		t.Fatalf("%d concurrent commits took %d fsyncs; group commit did not batch", n, got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, bodies, _ := collect(t, dir, 0)
	if len(bodies) != n {
		t.Fatalf("replayed %d records, want %d", len(bodies), n)
	}
	seen := map[string]bool{}
	for _, b := range bodies {
		seen[string(b)] = true
	}
	if len(seen) != n {
		t.Fatalf("lost records: %d distinct of %d", len(seen), n)
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := w.AppendCommit(7, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	end := w.DurableLSN()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(starts))
	}
	_, bodies, stats := collect(t, dir, 0)
	if len(bodies) != n || stats.End != end {
		t.Fatalf("replay got %d records end %d, want %d records end %d", len(bodies), stats.End, n, end)
	}
	// Reopen and keep appending; the log must stay contiguous.
	w2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if w2.EndLSN() != end {
		t.Fatalf("reopened at %d, want %d", w2.EndLSN(), end)
	}
	if _, err := w2.AppendCommit(8, []byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	types, _, _ := collect(t, dir, 0)
	if types[len(types)-1] != 8 {
		t.Fatal("record appended after reopen missing")
	}
}

func TestTornTailToleratedAndTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.AppendCommit(1, []byte(fmt.Sprintf("good-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	end := w.DurableLSN()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial frame at the tail.
	path := filepath.Join(dir, segName(0))
	full := appendFrame(nil, 9, bytes.Repeat([]byte{0xcd}, 100))
	for cut := 1; cut < len(full); cut += 17 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data[:end], full[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, bodies, stats := collect(t, dir, 0)
		if len(bodies) != 5 {
			t.Fatalf("cut %d: replayed %d records, want 5", cut, len(bodies))
		}
		if !stats.Torn || stats.End != end {
			t.Fatalf("cut %d: torn=%v end=%d, want torn at %d", cut, stats.Torn, stats.End, end)
		}
	}
	// Reopen truncates the tear and appends cleanly after it.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.EndLSN() != end {
		t.Fatalf("reopen end %d, want %d", w2.EndLSN(), end)
	}
	if _, err := w2.AppendCommit(2, []byte("post-tear")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	types, _, stats := collect(t, dir, 0)
	if stats.Torn || len(types) != 6 || types[5] != 2 {
		t.Fatalf("post-tear log wrong: torn=%v n=%d", stats.Torn, len(types))
	}
}

func TestInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mid uint64
	for i := 0; i < 5; i++ {
		lsn, err := w.AppendCommit(1, bytes.Repeat([]byte{byte('a' + i)}, 50))
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			mid = lsn
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the log: the record is fully
	// present, so this is corruption, not a torn tail.
	data[mid-10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption not rejected: %v", err)
	}
}

func TestReplayFromCheckpointHorizonAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var horizon uint64
	for i := 0; i < 40; i++ {
		lsn, err := w.AppendCommit(1, bytes.Repeat([]byte{byte(i)}, 40))
		if err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			horizon = lsn
		}
	}
	_, bodies, _ := collect(t, dir, horizon)
	if len(bodies) != 20 {
		t.Fatalf("replay from horizon got %d records, want 20", len(bodies))
	}
	removed, err := w.TruncateBefore(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected some segments removed")
	}
	// Post-truncation replay from the horizon still works; replay from 0
	// must refuse (the history is gone).
	_, bodies, _ = collect(t, dir, horizon)
	if len(bodies) != 20 {
		t.Fatalf("post-truncate replay got %d records, want 20", len(bodies))
	}
	if _, err := Replay(dir, 0, nil); err == nil {
		t.Fatal("replay from 0 over truncated log should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointMarkerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	want := Checkpoint{LSN: 12345, Dir: "chk-0000000000003039", UnixNano: 42}
	if err := SaveCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestInjectedFsyncCrashNeverAcknowledges(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteWALFsync, Kind: faults.Crash, EveryN: 3})
	faults.Install(in)
	defer faults.Install(nil)

	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	for i := 0; i < 20; i++ {
		body := []byte(fmt.Sprintf("commit-%02d", i))
		if _, err := w.AppendCommit(1, body); err != nil {
			break // the injected crash poisoned the writer: stop, like a dead process
		}
		acked = append(acked, body)
	}
	w.Close()
	faults.Install(nil)
	// Recovery must surface every acknowledged commit; unacknowledged ones
	// may or may not be present, but nothing acked can be missing.
	_, bodies, _ := collect(t, dir, 0)
	if len(bodies) < len(acked) {
		t.Fatalf("recovered %d records but %d were acknowledged", len(bodies), len(acked))
	}
	for i, want := range acked {
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("acked record %d lost or reordered", i)
		}
	}
}

func TestInjectedAppendErrorFailsOnlyThatAppend(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(2)
	in.MustArm(faults.Rule{Site: faults.SiteWALAppend, Kind: faults.Error, EveryN: 2, Limit: 1})
	faults.Install(in)
	defer faults.Install(nil)
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.AppendCommit(1, []byte("one")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if _, err := w.Append(1, []byte("two")); err == nil {
		t.Fatal("second append should hit the injected error")
	}
	if _, err := w.AppendCommit(1, []byte("three")); err != nil {
		t.Fatalf("append after injected error: %v", err)
	}
}

// FuzzWALRecord hardens the frame decoder: arbitrary bytes must never
// panic, a valid frame must round-trip, and the torn/corrupt distinction
// must hold — truncating a valid frame yields ErrTornTail, while flipping
// a byte inside a complete frame yields ErrCorrupt.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte("hello"), byte(3), 0, uint8(0))
	f.Add([]byte{}, byte(0), 1, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(255), 7, uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, typ byte, cut int, mode uint8) {
		frame := appendFrame(nil, typ, body)
		pos := func(m int) int { return int(uint(cut) % uint(m)) }
		switch mode % 3 {
		case 0: // intact frame round-trips
			gotTyp, gotBody, n, err := decodeFrame(frame)
			if err != nil {
				t.Fatalf("valid frame rejected: %v", err)
			}
			if gotTyp != typ || !bytes.Equal(gotBody, body) || n != uint64(len(frame)) {
				t.Fatal("valid frame round-trip mismatch")
			}
		case 1: // truncated frame is a torn tail, never corrupt, never a panic
			if len(frame) == 0 {
				return
			}
			k := pos(len(frame))
			_, _, _, err := decodeFrame(frame[:k])
			if err == nil {
				t.Fatal("truncated frame decoded successfully")
			}
			if !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			// Short prefixes (no complete header+payload) must be torn.
			if k < len(frame) && errors.Is(err, ErrCorrupt) && k < headerSize {
				t.Fatalf("short header classified corrupt at cut %d", k)
			}
		case 2: // a flipped byte in a complete frame is corruption
			if len(frame) <= headerSize {
				return
			}
			k := headerSize + pos(len(frame)-headerSize)
			mut := append([]byte(nil), frame...)
			mut[k] ^= 0x01
			_, _, _, err := decodeFrame(mut)
			if err == nil {
				t.Fatal("payload corruption not detected")
			}
		}
	})
}

// FuzzWALRecordStream feeds arbitrary bytes straight to the decoder loop
// the reader uses: it must terminate without panics whatever the input.
func FuzzWALRecordStream(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(appendFrame(nil, 1, []byte("a")), 2, []byte("bb")))
	f.Add(bytes.Repeat([]byte{0x00}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		off := uint64(0)
		for int(off) < len(data) {
			_, _, n, err := decodeFrame(data[off:])
			if err != nil {
				return
			}
			if n == 0 {
				t.Fatal("zero-length frame accepted: decoder would loop forever")
			}
			off += n
		}
	})
}

// TestCommitRacingCloseNeverHangs pins the Close liveness contract: a Commit
// that races Close must return — an error is fine, a permanent block is not.
// Before the fix, a waiter registered after Close's final flush snapshot was
// never woken (the syncer had exited and nothing drained the kick channel).
func TestCommitRacingCloseNeverHangs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if _, err := w.AppendCommit(1, []byte("payload")); err != nil {
					return // closed underneath us: allowed, hanging is not
				}
				acked.Add(1)
			}
		}()
	}
	close(start)
	w.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Commit blocked forever across Close")
	}
	// Post-close commits fail fast instead of registering unwakeable waiters.
	if err := w.Commit(w.DurableLSN() + 1); err == nil {
		t.Fatal("Commit after Close reported an undurable LSN as durable")
	}
	// Every acknowledged commit survived the shutdown.
	types, _, _ := collect(t, dir, 0)
	if int64(len(types)) < acked.Load() {
		t.Fatalf("log holds %d records but %d commits were acknowledged", len(types), acked.Load())
	}
}
