package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"verticadr/internal/colstore"
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

// headerSeeds are headers with every field set, and with none.
func headerSeeds() []Header {
	return []Header{
		&Request{},
		&Request{Op: "ping"},
		&Request{
			Op: "cl.select", SQL: "SELECT x FROM t WHERE k = ?", Name: "p",
			Args:      []any{int64(-7), 0.5, "a\x00\xff", "", true, false, int64(math.MinInt64)},
			TimeoutMS: -300, Trace: "1f", Span: "2a", Ext: []byte(`{"shards":[0]}`),
			Bodies: []int{0, 3, 1 << 20},
		},
		&Request{Op: "execute", Name: "p", Args: []any{math.Float64frombits(0x7ff8deadbeef0001), math.Inf(-1),
			math.Copysign(0, -1), 2.0, int64(math.MaxInt64), "\xff"}},
		&Response{},
		&Response{Code: "ok"},
		&Response{
			Code: "overloaded", Msg: "admission shed",
			Schema:  colstore.Schema{{Name: "id", Type: colstore.TypeInt64}, {Name: "", Type: 9}},
			Profile: []byte(`{"total_ns":7}`), Ext: []byte(`{"epoch":3}`), Bodies: []int{5},
		},
	}
}

// A header survives the codec field for field, and its encoding is the only
// one its decoder accepts: a varint in a longer form, a field or a list past
// the bytes left, a body longer than a frame, an argument of no type or cut
// short, a BOOLEAN past 1 and trailing bytes all fail.
func TestHeaderRoundTrip(t *testing.T) {
	for _, h := range headerSeeds() {
		enc := h.appendTo(nil)
		got := reflect.New(reflect.TypeOf(h).Elem()).Interface().(Header)
		if err := got.decode(enc); err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if !bytes.Equal(got.appendTo(nil), enc) || fmt.Sprint(got) != fmt.Sprint(h) {
			t.Fatalf("%+v decoded as %+v", h, got)
		}
		for cut := range len(enc) {
			if err := got.decode(enc[:cut]); !errors.Is(err, errFields) {
				t.Fatalf("%+v cut to %d of %d bytes: err = %v", h, cut, len(enc), err)
			}
		}
		if err := got.decode(append(enc, 0)); !errors.Is(err, errFields) {
			t.Fatalf("%+v with a byte over: err = %v", h, err)
		}
	}
	var req Request
	for name, bad := range map[string][]byte{
		"long-form varint": {0x81, 0x00},
		"varint overflow":  bytes.Repeat([]byte{0xff}, 11),
		"field past end":   {0x05, 'p', 'i'},
		"list past end":    append([]byte{0, 0, 0, 0x7f}, make([]byte, 8)...),
		"body past frame":  append(make([]byte, 8), 1, 0x80, 0x80, 0x80, 0x80, 0x08),
		// One argument, op/sql/name before it and timeout/trace/span/ext/bodies
		// after it all empty.
		"arg unknown type":          arg(5, 1),
		"arg invalid type":          arg(0, 1),
		"arg long-form varint":      arg(byte(colstore.TypeInt64), 0x80, 0x00),
		"arg varint overflow":       arg(append([]byte{byte(colstore.TypeInt64)}, bytes.Repeat([]byte{0xff}, 10)...)...),
		"arg float short":           arg(byte(colstore.TypeFloat64), 1, 2, 3),
		"arg string past end":       arg(byte(colstore.TypeString), 0x7f, 'a'),
		"arg bool 2":                arg(byte(colstore.TypeBool), 2),
		"arg count past end":        {0, 0, 0, 3, byte(colstore.TypeBool), 1, 0, 0, 0, 0, 0},
		"arg bool then a byte over": append(arg(byte(colstore.TypeBool), 1), 0),
	} {
		if err := req.decode(bad); !errors.Is(err, errFields) {
			t.Fatalf("%s: err = %v", name, err)
		}
	}

	// Every argument type crosses exactly — an int as the int64 it is, a
	// float's bits, NaN payload and sign of zero included, a string's bytes —
	// and an argument of any other type, nil included, is refused by index.
	nan := math.Float64frombits(0x7ff8deadbeef0001)
	in := []any{int(-7), int64(math.MinInt64), int64(math.MaxInt64), float64(2), nan, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), "a\x00\xff", "", true, false}
	var got Request
	if err := got.decode((&Request{Args: in}).appendTo(nil)); err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		want := v
		if n, ok := v.(int); ok {
			want = int64(n)
		}
		if w, ok := want.(float64); ok {
			if g, ok := got.Args[i].(float64); !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("argument %d: %#v came back as %#v", i, v, got.Args[i])
			}
		} else if got.Args[i] != want {
			t.Fatalf("argument %d: %#v came back as %#v", i, v, got.Args[i])
		}
	}
	if err := checkArgs(in); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []any{nil, uint8(1), float32(1), []byte("a"), json.RawMessage(`1`)} {
		if err := checkArgs([]any{1, bad}); err == nil || !strings.Contains(err.Error(), "argument 1") {
			t.Fatalf("%#v: err = %v", bad, err)
		}
	}
}

// arg is a request header whose one field set is args, holding one argument
// encoded as b.
func arg(b ...byte) []byte {
	return append(append([]byte{0, 0, 0, 1}, b...), 0, 0, 0, 0, 0)
}

// FuzzHeader: any bytes decode as a Request and as a Response without
// panicking, and a header that decodes re-encodes to exactly its bytes.
func FuzzHeader(f *testing.F) {
	for _, h := range headerSeeds() {
		f.Add(h.appendTo(nil))
	}
	f.Add([]byte{0x81, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, h := range []Header{new(Request), new(Response)} {
			if h.decode(data) != nil {
				continue
			}
			if enc := h.appendTo(nil); !bytes.Equal(enc, data) {
				t.Fatalf("%q decodes as %+v, which encodes as %q", data, h, enc)
			}
		}
	})
}
