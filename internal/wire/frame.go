// Package wire is the one TCP transport of the system: the serving protocol
// (internal/server), the cluster's peer calls (internal/cluster) and the
// transfer's data plane (internal/vft) all speak it. A Listener answers every
// request frame with one verr-coded response frame; a Client makes one round
// trip at a time under its context, as a Send and a Wait, so a caller can
// write requests on several connections before it reads any reply; a Pool
// keeps idle Clients to one address.
//
// A frame is a u32 little-endian payload length, then the payload:
//
//	u32 header length | header | body 0 | body 1 | ...
//
// The header (a Request or a Response) names each body's length in Bodies;
// the bodies tile the rest of the frame exactly. A body is raw bytes, today
// always a vft chunk: every batch that crosses a socket rides in one, so no
// float, NaN payload or NUL byte is ever re-encoded on the way.
//
// The header is binary, its fields in a fixed order with no names or tags:
//
//	Request:  op | sql | name | args | timeout_ms | trace | span | ext | bodies
//	Response: code | msg | schema | profile | ext | bodies
//
// A string or byte field is a uvarint length and that many bytes;
// timeout_ms is a zigzag varint; schema is a uvarint count of columns, each a
// name string and a one-byte colstore.Type; bodies is a uvarint count of
// uvarint lengths. args is a uvarint count of a statement's arguments, each
// its colstore.Type byte and then its value: an INTEGER a zigzag varint, a
// FLOAT its eight little-endian bytes, a VARCHAR a string field, a BOOLEAN
// one byte, 0 or 1. So an argument crosses exactly as it was bound — a whole
// float stays a float, NaN payloads, -0.0 and bytes that are not UTF-8 stay
// as they were. Every varint is in its shortest form and the header ends
// where its last field does, so a header has one encoding: a decoded header
// re-encodes to its own bytes.
//
// Ext is an extension op's payload and Profile a PROFILE result's
// measurements; the transport carries both as opaque bytes. The field codec
// the header is written in is exported — AppendField, AppendBool,
// AppendSchema and binary's varints to write, a Decoder to read — and every
// extension payload (the cluster's cl.* ops, the transfer's vft.send) is
// written in it too, so there is one reader of varints and lengths. Only
// Profile holds JSON.
//
// Ownership: a decoded body — and a decoded header's byte fields, Ext and
// Profile — aliases the connection's read buffer. On the listener it is
// valid until the handler returns, on a client until its next call or until
// it goes back to a Pool — decode before you return, the contract Hub.Send
// has. An outgoing body may alias what it was written from — a result's body
// is the result's own columns where they are the chunk's bytes — so what a
// frame holds is not written until the frame is sent.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
// listener), whose small binary payload rides in Ext. SQL and Args also carry a
// cluster peer's statement (its text and bound arguments); Name belongs to
// the SQL ops. They are all here because one header is decoded for every op.
// An argument is what sqlparse.BindSelect binds: an int or int64 (decoded as
// int64), a float64, a string or a bool; a client refuses any other before
// sending (checkArgs).
type Request struct {
	Op        string
	SQL       string
	Name      string
	Args      []any
	TimeoutMS int64
	// Trace/Span carry the client's trace context (hex span IDs): the
	// handler's spans attach under the client's request span, so one request
	// yields one trace across both processes.
	Trace  string
	Span   string
	Ext    []byte
	Bodies []int
}

// Response heads every response frame: a verr code and message, then what
// the op returns — a result's Schema and Profile with the result as the one
// body, or an extension op's Ext payload and bodies (a batch-valued body
// under Schema).
type Response struct {
	Code    string
	Msg     string
	Schema  colstore.Schema
	Profile []byte // a PROFILE's measurements, as JSON
	Ext     []byte
	Bodies  []int
}

// Header is a frame's header: a *Request or a *Response.
type Header interface {
	appendTo(b []byte) []byte
	decode(b []byte) error
	lens() *[]int
}

func (r *Request) lens() *[]int  { return &r.Bodies }
func (r *Response) lens() *[]int { return &r.Bodies }

func (r *Request) appendTo(b []byte) []byte {
	b = AppendField(b, r.Op)
	b = AppendField(b, r.SQL)
	b = AppendField(b, r.Name)
	b = binary.AppendUvarint(b, uint64(len(r.Args)))
	for _, a := range r.Args {
		b = appendArg(b, a)
	}
	b = binary.AppendVarint(b, r.TimeoutMS)
	b = AppendField(b, r.Trace)
	b = AppendField(b, r.Span)
	b = AppendField(b, r.Ext)
	return appendLens(b, r.Bodies)
}

func (r *Request) decode(b []byte) error {
	d := NewDecoder(b)
	r.Op = d.Str()
	r.SQL = d.Str()
	r.Name = d.Str()
	r.Args = r.Args[:0]
	for n := d.Count(2); n > 0; n-- {
		r.Args = append(r.Args, d.arg())
	}
	r.TimeoutMS = d.Varint()
	r.Trace = d.Str()
	r.Span = d.Str()
	r.Ext = d.bytes()
	d.lens(&r.Bodies)
	return d.End()
}

func (r *Response) appendTo(b []byte) []byte {
	b = AppendField(b, r.Code)
	b = AppendField(b, r.Msg)
	b = AppendSchema(b, r.Schema)
	b = AppendField(b, r.Profile)
	b = AppendField(b, r.Ext)
	return appendLens(b, r.Bodies)
}

func (r *Response) decode(b []byte) error {
	d := NewDecoder(b)
	if code := d.bytes(); string(code) == verr.CodeOK {
		r.Code = verr.CodeOK // a success's code, without an allocation
	} else {
		r.Code = string(code)
	}
	r.Msg = d.Str()
	r.Schema = d.Schema() // never reused: a decoded batch keeps it
	r.Profile = d.bytes()
	r.Ext = d.bytes()
	d.lens(&r.Bodies)
	return d.End()
}

// AppendField appends a string or byte field: its length, then its bytes.
// With binary.AppendUvarint and binary.AppendVarint (a zigzag varint),
// AppendBool and AppendSchema it is the one field codec every header and
// extension payload is written in; a Decoder reads them back.
func AppendField[T ~string | ~[]byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends a boolean: one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendSchema appends a schema: its column count, then each column's name
// and its colstore.Type byte.
func AppendSchema(b []byte, s colstore.Schema) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, c := range s {
		b = append(AppendField(b, c.Name), byte(c.Type))
	}
	return b
}

// appendArg appends a statement argument: its type byte, then its value.
func appendArg(b []byte, a any) []byte {
	switch v := a.(type) {
	case int:
		return binary.AppendVarint(append(b, byte(colstore.TypeInt64)), int64(v))
	case int64:
		return binary.AppendVarint(append(b, byte(colstore.TypeInt64)), v)
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, byte(colstore.TypeFloat64)), math.Float64bits(v))
	case string:
		return AppendField(append(b, byte(colstore.TypeString)), v)
	case bool:
		return AppendBool(append(b, byte(colstore.TypeBool)), v)
	}
	panic(fmt.Sprintf("wire: argument of type %T", a)) // checkArgs refuses it first
}

// checkArgs refuses, by index, an argument appendArg cannot encode.
func checkArgs(args []any) error {
	for i, a := range args {
		switch a.(type) {
		case int, int64, float64, string, bool:
		default:
			return fmt.Errorf("wire: argument %d: unsupported type %T", i, a)
		}
	}
	return nil
}

func appendLens(b []byte, lens []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(lens)))
	for _, l := range lens {
		b = binary.AppendUvarint(b, uint64(l))
	}
	return b
}

// Decoder reads fields in the order they were appended: a frame header's,
// or an extension payload's. Everything here came off a wire: a varint that
// is truncated, overflows or is not in its shortest form, a length past the
// bytes left, a count of more elements than bytes left, a boolean byte past
// 1, a body longer than a frame and bytes after the last field are all
// errors. So a field list has one encoding: what decodes re-encodes to the
// same bytes. The first error sticks; later reads return zero values, and
// End reports it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b; byte fields it reads alias b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

var errFields = errors.New("wire: malformed fields")

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errFields}, args...)...)
	}
	d.b = nil
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail("truncated varint")
		return 0
	case n < 0:
		d.fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.fail("varint not in its shortest form")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zigzag varint: the shortest-form check is Uvarint's.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int is Varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err == nil && len(d.b) == 0 {
		d.fail("truncated fields")
	}
	if d.err != nil {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Bool reads AppendBool's byte: one that is not 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	c := d.Byte()
	if c > 1 {
		d.fail("a boolean byte of %d", c)
	}
	return c == 1
}

// bytes reads a length-prefixed field, aliasing the decoded bytes; nil when
// empty.
func (d *Decoder) bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail("a %d-byte field with %d bytes left", n, len(d.b))
	}
	if d.err != nil || n == 0 {
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

// Str reads a string field, copied.
func (d *Decoder) Str() string { return string(d.bytes()) }

// Schema reads AppendSchema's schema, nil when it has no columns. A type
// byte is taken as it comes: whether it names a type is the reader's check.
func (d *Decoder) Schema() colstore.Schema {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	s := make(colstore.Schema, n)
	for i := range s {
		s[i] = colstore.ColumnSchema{Name: d.Str(), Type: colstore.Type(d.Byte())}
	}
	return s
}

// arg is appendArg reversed: an unknown type byte, a BOOLEAN byte past 1 or a
// FLOAT cut short is an error.
func (d *Decoder) arg() any {
	switch t := colstore.Type(d.Byte()); t {
	case colstore.TypeInt64:
		return d.Varint()
	case colstore.TypeFloat64:
		if len(d.b) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
			d.b = d.b[8:]
			return v
		}
		d.fail("a FLOAT argument of %d bytes", len(d.b))
	case colstore.TypeString:
		return d.Str()
	case colstore.TypeBool:
		return d.Bool()
	default:
		d.fail("an argument of type %d", t)
	}
	return nil
}

// Count reads a list's length, each of whose elements takes at least min
// bytes: a count the bytes left cannot hold is an error, so a list never
// allocates more than its encoding's size.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("a list of %d with %d bytes left", n, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// lens decodes the bodies' lengths into *lens, reusing its array.
func (d *Decoder) lens(lens *[]int) {
	*lens = (*lens)[:0]
	for n := d.Count(1); n > 0; n-- {
		l := d.Uvarint()
		if l > MaxFrameBytes {
			d.fail("a body of %d bytes", l)
		}
		*lens = append(*lens, int(l))
	}
}

// End reports the first error, or bytes left after the last field.
func (d *Decoder) End() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d bytes after the last field", len(d.b))
	}
	return d.err
}

// errResponse is the response reporting err.
func errResponse(err error) Response {
	return Response{Code: verr.Code(err), Msg: err.Error()}
}

// WriteFrame writes one frame whose payload is the concatenation of parts.
func WriteFrame(w io.Writer, parts ...[]byte) error {
	var f frame
	f.head = make([]byte, 4)
	f.parts = append([][]byte{f.head}, parts...)
	return f.writeTo(w)
}

// ReadFrame reads one frame, reusing buf when it has the capacity. It returns
// io.EOF unchanged when the stream ends cleanly between frames, so callers
// can distinguish shutdown from corruption.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	rd := reader{r: r, buf: buf}
	return rd.next()
}

// AppendFrame appends a frame's payload to dst — the header's length, h with
// its Bodies set to the bodies' lengths, the bodies — as DecodeFrame reads it
// and WriteFrame sends it.
func AppendFrame(dst []byte, h Header, bodies ...[]byte) []byte {
	setLens(h.lens(), bodies, false)
	at := len(dst)
	dst = h.appendTo(append(dst, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	for _, b := range bodies {
		dst = append(dst, b...)
	}
	return dst
}

// setLens sets *lens to the bodies' lengths — with one, to the one length of
// a body sent in several parts.
func setLens(lens *[]int, bodies [][]byte, one bool) {
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
}

// frame is a connection's outgoing frame: parts is the head — the frame's
// length prefix, the header's length, the header — followed by the bodies'
// bytes, one part a body or a body in several parts. The head and the vector
// the parts go out in are reused by the connection's next frame.
type frame struct {
	parts [][]byte
	head  []byte
	vec   net.Buffers
	out   net.Buffers
}

// set makes h, then the bodies' bytes, the frame, h's Bodies set to the
// bodies' lengths first. With one, bodies are the parts of a single body: a
// result's chunk written from the result's own columns (colstore.ChunkParts).
func (f *frame) set(h Header, bodies [][]byte, one bool) {
	setLens(h.lens(), bodies, one)
	var prefixes [8]byte // the frame's length, then the header's
	f.head = h.appendTo(append(f.head[:0], prefixes[:]...))
	binary.LittleEndian.PutUint32(f.head[4:], uint32(len(f.head)-8))
	f.parts = append(append(f.parts[:0], f.head), bodies...)
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
			f.head = append(f.head, p...)
		}
		_, err = w.Write(f.head)
	} else {
		f.vec = append(f.vec[:0], f.parts...)
		f.out = f.vec
		_, err = f.out.WriteTo(w)
		clear(f.vec)
	}
	if cap(f.head) > keepBufBytes {
		f.head = nil
	}
	return err
}

// DecodeFrame decodes a frame's header into h and cuts the bodies its Bodies
// announce out of the frame, uncopied. Everything here came off a wire: a
// header length past the frame, a malformed header, bodies that overrun the
// frame or leave bytes over are errors.
func DecodeFrame(frame []byte, h Header) ([][]byte, error) {
	if len(frame) < 4 {
		return nil, fmt.Errorf("frame of %d bytes has no header length", len(frame))
	}
	n := binary.LittleEndian.Uint32(frame)
	rest := frame[4:]
	if uint64(n) > uint64(len(rest)) {
		return nil, fmt.Errorf("header of %d bytes in a frame of %d", n, len(frame))
	}
	if err := h.decode(rest[:n]); err != nil {
		return nil, err
	}
	rest = rest[n:]
	var bodies [][]byte
	for i, l := range *h.lens() {
		if l > len(rest) {
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

// spare holds the buffer last pooled while it was empty, where a Get on any
// P finds it. A sync.Pool keeps a Put in the putting P's private slot, which
// a Get on another P never sees, and a listener's connection sheds its large
// buffer before it blocks for the next frame, after which its goroutine may
// run on another P. One spare lets the two buffers of a connection's large
// round trips cycle without a miss; it pins at most one pooled buffer.
var spare struct {
	sync.Mutex
	p *[]byte
}

// getBox takes a pooled buffer with room for n bytes: from the pool, else
// the spare.
func getBox(n int) *[]byte {
	if p := poolBox(n); p != nil {
		return p
	}
	spare.Lock()
	defer spare.Unlock()
	if p := spare.p; p != nil && cap(*p) >= n {
		spare.p = nil
		return p
	}
	return nil
}

// poolBox takes a buffer with room for n bytes from the pool, looking at two
// at most: one too small goes back, it still fits someone else.
func poolBox(n int) *[]byte {
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

// putBox pools b, emptied, in the box p (a new one when p is nil): as the
// spare when there is none, else in the pool.
func putBox(p *[]byte, b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBytes {
		return
	}
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	spare.Lock()
	if spare.p == nil {
		spare.p, p = p, nil
	}
	spare.Unlock()
	if p != nil {
		bufPool.Put(p)
	}
}
