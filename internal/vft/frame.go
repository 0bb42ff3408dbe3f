package vft

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// MaxFrameBytes caps a single frame payload; larger frames are rejected so a
// corrupt or hostile length prefix cannot announce an endless read.
const MaxFrameBytes = 1 << 30

// WriteFrame writes one length-prefixed frame (u32 little-endian payload
// length, then the payload) whose payload is the concatenation of parts, in
// one write call: vectored for all but small frames, so on a TCP connection
// a large payload's parts go out in a single writev, uncopied. The transfer
// data plane and the query-serving protocol (internal/server) share this
// layout.
func WriteFrame(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxFrameBytes {
		return fmt.Errorf("vft: frame too large (%d bytes)", n)
	}
	prefix := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+min(n, coalesceBytes)), uint32(n))
	if n <= coalesceBytes {
		for _, p := range parts {
			prefix = append(prefix, p...)
		}
		_, err := w.Write(prefix)
		return err
	}
	bufs := append(append(make(net.Buffers, 0, 1+len(parts)), prefix), parts...)
	_, err := bufs.WriteTo(w)
	return err
}

// coalesceBytes is the payload size up to which WriteFrame copies the parts
// into one buffer and makes one plain write: below it the copy is cheaper
// than a vectored write's set-up, which a ping or a one-row result would
// otherwise pay on every frame.
const coalesceBytes = 4 << 10

// ReadFrame reads one length-prefixed frame, reusing buf when it has the
// capacity. It returns io.EOF unchanged when the stream ends cleanly between
// frames, so callers can distinguish shutdown from corruption.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("vft: frame too large (%d bytes)", n)
	}
	return readPayload(r, int(n), buf)
}

// firstReadStep is the most a payload read allocates on the word of a length
// prefix alone.
const firstReadStep = 64 << 10

// readPayload reads an announced n-byte payload into buf. A buffer that is
// too small grows with the bytes actually received — a first step, then
// fourfold, which re-copies a third of a large frame where doubling would
// re-copy all of it — so a length prefix costs its sender's peer at most four
// times what the sender went on to deliver, never the announced size up front.
func readPayload(r io.Reader, n int, buf []byte) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, midFrame(err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(3*len(buf), firstReadStep))
		if cap(buf)-len(buf) < step {
			buf = append(make([]byte, 0, len(buf)+step), buf...)
		}
		got := len(buf)
		buf = buf[:got+step]
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, midFrame(err)
		}
	}
	return buf, nil
}

// midFrame is a payload read's error: the stream ending inside a frame is
// never the clean end between frames that a bare io.EOF reports.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
