package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// A length prefix is four bytes from anyone who can connect: it must not
// buy an allocation of the size it announces. The buffer grows with the
// bytes that actually arrive.
func TestReadFrameHostilePrefixAllocatesLittle(t *testing.T) {
	prefix := binary.LittleEndian.AppendUint32(nil, MaxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(prefix), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("1 GiB announced, nothing sent: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 1 GiB length prefix followed by EOF allocated %d bytes, want < 1 MiB", got)
	}

	// Half a frame, then EOF: what was allocated is bounded by what arrived.
	half := append(binary.LittleEndian.AppendUint32(nil, 8<<20), make([]byte, 4<<20)...)
	runtime.ReadMemStats(&before)
	_, err = ReadFrame(bytes.NewReader(half), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 20<<20 {
		t.Fatalf("4 MiB of an announced 8 MiB allocated %d bytes", got)
	}

	if _, err := ReadFrame(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1)), nil); err == nil {
		t.Fatal("a frame over MaxFrameBytes was accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("clean end between frames: err = %v, want io.EOF", err)
	}
}

// Frames larger than the buffer arrive intact through the stepwise growth,
// and WriteFrame's parts concatenate into one payload.
func TestFrameRoundTripAcrossGrowth(t *testing.T) {
	for _, n := range []int{0, 1, firstReadStep - 1, firstReadStep, firstReadStep + 1, 5*firstReadStep + 7} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var w bytes.Buffer
		if err := WriteFrame(&w, payload[:n/3], nil, payload[n/3:]); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&w, []byte("next")); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&w, make([]byte, 0, 16))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame: err %v, equal %v", n, err, bytes.Equal(got, payload))
		}
		if got, err = ReadFrame(&w, got); err != nil || string(got) != "next" {
			t.Fatalf("frame after a %d-byte one: %q, %v", n, got, err)
		}
	}
}

// Steady state: a connection's small frames reuse one buffer.
func TestReadFrameReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	one := stream.Bytes()
	r := bytes.NewReader(one)
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(one)
		frame, err := ReadFrame(r, buf)
		if err != nil || len(frame) != 512 || &frame[0] != &buf[:1][0] {
			t.Fatalf("frame not read into the caller's buffer: %v", err)
		}
	})
	if allocs != 1 { // the length prefix's four bytes, which escape through io.Reader
		t.Fatalf("ReadFrame into a sufficient buffer: %v allocs/op, want 1", allocs)
	}
}
