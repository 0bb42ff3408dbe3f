package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"verticadr/internal/vft"
)

// The serving frame. Every op, in both directions, has one layout inside
// vft's u32-length-prefixed frame:
//
//	u32 header length | JSON header | body 0 | body 1 | ...
//
// The header is small — op, SQL text, a code and message, a schema, a
// profile, trace IDs — and names each body's length in "bodies"; the bodies
// tile the rest of the frame exactly. A body is raw bytes, today always a vft
// chunk: every batch that crosses a socket rides in one, so no float, NaN
// payload or NUL byte ever passes through JSON, and nothing is base64.
//
// Ownership: a decoded body aliases the connection's read buffer. On the
// server it is valid until the handler returns, on the client until the next
// call on that Client — decode before you return, the contract Hub.Send has.
// An outgoing body may alias what it was written from — a result's body is
// the result's own columns where they are the chunk's bytes — so what a
// frame holds is not written until the frame is sent.

// keepBufBytes is the largest frame buffer a connection keeps between
// frames: it reuses one buffer across its small requests without pinning the
// biggest frame it ever saw.
const keepBufBytes = 1 << 20

// kept is buf as the connection's next frame buffer.
func kept(buf []byte) []byte {
	if cap(buf) > keepBufBytes {
		return nil
	}
	return buf[:0]
}

// outFrame is a connection's outgoing frame: parts is the head — header
// length, then header — followed by the bodies' bytes, one part a body or a
// body in several parts; head is the buffer the connection's next head
// reuses.
type outFrame struct {
	parts [][]byte
	head  []byte
}

// set makes header and bodies the frame, *lens — the header's "bodies" field
// — set to the bodies' lengths first.
func (f *outFrame) set(header any, lens *[]int, bodies [][]byte) error {
	*lens = nil
	for _, b := range bodies {
		*lens = append(*lens, len(b))
	}
	return f.frame(header, bodies)
}

// setBody makes header and one body the frame, the body given as parts that
// concatenate to it — a result's chunk written from the result's own columns
// (colstore.ChunkParts) — and *lens set to its one length first.
func (f *outFrame) setBody(header any, lens *[]int, parts [][]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	*lens = []int{n}
	return f.frame(header, parts)
}

// frame makes header, then the bodies' bytes, the frame.
func (f *outFrame) frame(header any, bodies [][]byte) error {
	hdr, err := json.Marshal(header)
	if err != nil {
		return err
	}
	f.head = append(binary.LittleEndian.AppendUint32(f.head[:0], uint32(len(hdr))), hdr...)
	f.parts = append(append(f.parts[:0], f.head), bodies...)
	return nil
}

// size is the frame's payload length.
func (f *outFrame) size() int {
	n := 0
	for _, p := range f.parts {
		n += len(p)
	}
	return n
}

// writeTo sends the frame — head and bodies in one vectored write — and lets
// go of the bodies.
func (f *outFrame) writeTo(w io.Writer) error {
	err := vft.WriteFrame(w, f.parts...)
	clear(f.parts)
	f.head = kept(f.head)
	return err
}

// decodeFrame unmarshals a frame's header — lens points at its "bodies"
// field — and cuts the bodies it announces out of the frame, uncopied.
// Everything here came off a wire: a header length past the frame, a negative
// body length, bodies that overrun the frame or leave bytes over are errors.
func decodeFrame(frame []byte, header any, lens *[]int) ([][]byte, error) {
	if len(frame) < 4 {
		return nil, fmt.Errorf("frame of %d bytes has no header length", len(frame))
	}
	n := binary.LittleEndian.Uint32(frame)
	rest := frame[4:]
	if uint64(n) > uint64(len(rest)) {
		return nil, fmt.Errorf("header of %d bytes in a frame of %d", n, len(frame))
	}
	if err := json.Unmarshal(rest[:n], header); err != nil {
		return nil, err
	}
	rest = rest[n:]
	var bodies [][]byte
	for i, l := range *lens {
		if l < 0 || l > len(rest) {
			return nil, fmt.Errorf("body %d of %d bytes, %d left in the frame", i, l, len(rest))
		}
		bodies = append(bodies, rest[:l:l])
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes after the last body", len(rest))
	}
	return bodies, nil
}
