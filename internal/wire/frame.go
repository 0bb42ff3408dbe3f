// Package wire is the one TCP transport of the system: the serving protocol
// (internal/server), the cluster's peer calls (internal/cluster) and the
// transfer's data plane (internal/vft) all speak it. A Listener answers every
// request frame with one verr-coded response frame; a Client makes one round
// trip at a time under its context; a Pool keeps idle Clients to one address.
//
// A frame is a u32 little-endian payload length, then the payload:
//
//	u32 header length | JSON header | body 0 | body 1 | ...
//
// The header (a Request or a Response) names each body's length in "bodies";
// the bodies tile the rest of the frame exactly. A body is raw bytes, today
// always a vft chunk: every batch that crosses a socket rides in one, so no
// float, NaN payload or NUL byte ever passes through JSON, and nothing is
// base64.
//
// Ownership: a decoded body aliases the connection's read buffer. On the
// listener it is valid until the handler returns, on a client until its next
// call or until it goes back to a Pool — decode before you return, the
// contract Hub.Send has. An outgoing body may alias what it was written from
// — a result's body is the result's own columns where they are the chunk's
// bytes — so what a frame holds is not written until the frame is sent.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/verr"
)

// MaxFrameBytes caps a single frame payload; larger frames are rejected so a
// corrupt or hostile length prefix cannot announce an endless read.
const MaxFrameBytes = 1 << 30

// Request heads every request frame. Op names the operation: the serving
// protocol's SQL ops ("query", "prepare", "execute"), "ping", or an extension
// op ("cl.*" between cluster peers, "vft.send" to a transfer's worker
// listener), whose small payload rides in Ext. SQL, Name and Args belong to
// the SQL ops; they are here because one header is decoded for every op.
type Request struct {
	Op        string            `json:"op"`
	SQL       string            `json:"sql,omitempty"`
	Name      string            `json:"name,omitempty"`
	Args      []json.RawMessage `json:"args,omitempty"`
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
	// Trace/Span carry the client's trace context (hex span IDs): the
	// handler's spans attach under the client's request span, so one request
	// yields one trace across both processes.
	Trace  string          `json:"trace,omitempty"`
	Span   string          `json:"span,omitempty"`
	Ext    json.RawMessage `json:"ext,omitempty"`
	Bodies []int           `json:"bodies,omitempty"`
}

// Response heads every response frame: a verr code and message, then what
// the op returns — a result's Schema and Profile with the result as the one
// body, or an extension op's Ext payload and bodies.
type Response struct {
	Code    string          `json:"code"`
	Msg     string          `json:"msg,omitempty"`
	Schema  colstore.Schema `json:"schema,omitempty"`
	Profile json.RawMessage `json:"profile,omitempty"`
	Ext     json.RawMessage `json:"ext,omitempty"`
	Bodies  []int           `json:"bodies,omitempty"`
}

// errResponse is the response reporting err.
func errResponse(err error) Response {
	return Response{Code: verr.Code(err), Msg: err.Error()}
}

// WriteFrame writes one frame whose payload is the concatenation of parts.
func WriteFrame(w io.Writer, parts ...[]byte) error {
	var f frame
	f.head.Write(make([]byte, 4))
	f.parts = append([][]byte{f.head.Bytes()}, parts...)
	return f.writeTo(w)
}

// ReadFrame reads one frame, reusing buf when it has the capacity. It returns
// io.EOF unchanged when the stream ends cleanly between frames, so callers
// can distinguish shutdown from corruption.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	rd := reader{r: r, buf: buf}
	return rd.next()
}

// frame is a connection's outgoing frame: parts is the head — the frame's
// length prefix, the header's length, the header — followed by the bodies'
// bytes, one part a body or a body in several parts. The head, the JSON
// encoder writing into it and the vector the parts go out in are reused by
// the connection's next frame.
type frame struct {
	parts [][]byte
	head  bytes.Buffer
	enc   *json.Encoder
	vec   net.Buffers
	out   net.Buffers
}

// set makes header, then the bodies' bytes, the frame, *lens — the header's
// "bodies" field — set to the bodies' lengths first. With one, bodies are
// the parts of a single body: a result's chunk written from the result's own
// columns (colstore.ChunkParts).
func (f *frame) set(header any, lens *[]int, bodies [][]byte, one bool) error {
	*lens = (*lens)[:0]
	if one {
		*lens = append(*lens, 0)
	}
	for _, b := range bodies {
		if one {
			(*lens)[0] += len(b)
		} else {
			*lens = append(*lens, len(b))
		}
	}
	return f.encode(header, bodies)
}

func (f *frame) encode(header any, bodies [][]byte) error {
	if f.enc == nil {
		f.enc = json.NewEncoder(&f.head)
	}
	var prefixes [8]byte // the frame's length, then the header's
	f.head.Reset()
	f.head.Write(prefixes[:])
	if err := f.enc.Encode(header); err != nil {
		f.parts = f.parts[:0]
		return err
	}
	f.head.Truncate(f.head.Len() - 1) // the Encoder's newline
	head := f.head.Bytes()
	binary.LittleEndian.PutUint32(head[4:], uint32(len(head)-8))
	f.parts = append(append(f.parts[:0], head), bodies...)
	return nil
}

// size is the frame's payload length.
func (f *frame) size() int {
	n := -4 // the length prefix is not payload
	for _, p := range f.parts {
		n += len(p)
	}
	return n
}

// coalesceBytes is the payload size up to which a frame's parts are copied
// into one buffer and go out in one plain write: below it the copy is cheaper
// than a vectored write's set-up, which a ping or a one-row result would
// otherwise pay on every frame.
const coalesceBytes = 4 << 10

// writeTo sends the frame — a small one in one plain write, a large one in
// one vectored write (writev on a TCP connection), its bodies uncopied — and
// lets go of the bodies.
func (f *frame) writeTo(w io.Writer) error {
	defer clear(f.parts)
	n := f.size()
	if n > MaxFrameBytes {
		return fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	binary.LittleEndian.PutUint32(f.parts[0], uint32(n))
	var err error
	if n <= coalesceBytes {
		for _, p := range f.parts[1:] {
			f.head.Write(p)
		}
		_, err = w.Write(f.head.Bytes())
	} else {
		f.vec = append(f.vec[:0], f.parts...)
		f.out = f.vec
		_, err = f.out.WriteTo(w)
		clear(f.vec)
	}
	if f.head.Cap() > keepBufBytes {
		f.head = bytes.Buffer{}
	}
	return err
}

// DecodeFrame unmarshals a frame's header — lens points at its "bodies"
// field — and cuts the bodies it announces out of the frame, uncopied.
// Everything here came off a wire: a header length past the frame, a negative
// body length, bodies that overrun the frame or leave bytes over are errors.
func DecodeFrame(frame []byte, header any, lens *[]int) ([][]byte, error) {
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

// keepBufBytes is the largest buffer a connection keeps for good: one buffer
// serves all its small frames without pinning the biggest it ever saw.
const keepBufBytes = 1 << 20

// reader reads one connection's frames, each valid until the next or until
// shed. A small buffer serves all the connection's small frames; a frame over
// keepBufBytes is read into a buffer from the pool, which goes back at the
// next frame or at shed, so no connection pins a large frame while it idles.
// took is how long the last payload took to arrive: the wait for a length
// prefix is the peer's idle time, not transfer time.
type reader struct {
	r    io.Reader
	pre  [4]byte
	buf  []byte
	box  *[]byte // the pool's box buf came in
	took time.Duration
}

func (rd *reader) next() ([]byte, error) {
	if _, err := io.ReadFull(rd.r, rd.pre[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(rd.pre[:]))
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	rd.shed()
	if n > keepBufBytes {
		if p := getBox(n); p != nil {
			rd.buf, rd.box = *p, p
		}
	}
	start := time.Now()
	frame, err := readPayload(rd.r, n, rd.buf)
	rd.took = time.Since(start)
	if err != nil {
		return nil, err
	}
	rd.buf = frame
	return frame, nil
}

// shed gives a large buffer back to the pool; the last frame is no longer
// valid.
func (rd *reader) shed() {
	if cap(rd.buf) > keepBufBytes {
		putBox(rd.box, rd.buf)
		rd.buf, rd.box = nil, nil
	}
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

// bufPool holds byte buffers, each in a *[]byte box, up to maxPooledBytes:
// the large frames connections read, and what is built to be sent as one — a
// transfer's messages (vft's message buffers come from here), so a message's
// buffer, once sent, is what a listener reads a later one into.
var bufPool sync.Pool

const maxPooledBytes = 8 << 20

// GetBuf returns an empty pooled buffer with room for n bytes, or nil when
// the pool has none at hand.
func GetBuf(n int) []byte {
	if p := getBox(n); p != nil {
		return *p
	}
	return nil
}

// PutBuf returns b to the pool. The caller must not use b afterwards.
func PutBuf(b []byte) { putBox(nil, b) }

// getBox takes a pooled buffer with room for n bytes, looking at two at
// most: one too small goes back, it still fits someone else.
func getBox(n int) *[]byte {
	var short *[]byte
	for range 2 {
		p, _ := bufPool.Get().(*[]byte)
		if short != nil {
			bufPool.Put(short)
		}
		if p == nil || cap(*p) >= n {
			return p
		}
		short = p
	}
	bufPool.Put(short)
	return nil
}

// putBox pools b, emptied, in the box p (a new one when p is nil).
func putBox(p *[]byte, b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBytes {
		return
	}
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	bufPool.Put(p)
}
