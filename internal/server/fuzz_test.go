package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlexec"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
	"verticadr/internal/wire"
)

// fuzzFront answers the SQL ops without an engine: a fixed two-row result of
// every column type, an error for empty SQL.
type fuzzFront struct{ res *sqlexec.Result }

func (f fuzzFront) Query(_ context.Context, sql string) (*sqlexec.Result, error) {
	if sql == "" {
		return nil, errors.New("empty statement")
	}
	return f.res, nil
}
func (f fuzzFront) Prepare(string, string) error { return nil }
func (f fuzzFront) Execute(_ context.Context, _ string, args ...any) (*sqlexec.Result, error) {
	if len(args) == 0 {
		return nil, verr.ErrOverloaded
	}
	return f.res, nil
}

// fuzzExt sends a request's bodies straight back.
type fuzzExt struct{}

func (fuzzExt) ServeExt(_ context.Context, _ string, _ json.RawMessage, bodies [][]byte) (any, [][]byte, error) {
	return map[string]int{"bodies": len(bodies)}, bodies, nil
}

// FuzzDecodeFrame feeds arbitrary bytes to both ends of a connection — as a
// request frame to a listening server, as a response frame to the client's
// decoder:
// a header length past the frame, body lengths that are negative, overrun the
// frame or leave bytes over, a schema its chunk disagrees with, a schema of
// no storable type, a result announced with no body. None may panic; decoded
// bodies alias the frame (nothing is copied or allocated per body byte); a
// frame that decodes re-encodes to a canonical frame that decodes to the same
// parts and re-encodes to itself; and whatever a request holds, the server
// answers it with a well-formed response frame.
func FuzzDecodeFrame(f *testing.F) {
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString}, {Name: "flag", Type: colstore.TypeBool},
	}
	b := colstore.NewBatch(schema)
	for _, row := range [][]any{
		{int64(math.MinInt64), math.Float64frombits(0x7ff8deadbeef0001), "\x00", true},
		{int64(1 << 60), math.Inf(-1), "", false},
	} {
		if err := b.AppendRow(row...); err != nil {
			f.Fatal(err)
		}
	}
	chunk, err := vft.EncodeChunk(b)
	if err != nil {
		f.Fatal(err)
	}
	frame := func(header any, lens *[]int, bodies ...[]byte) []byte {
		w, err := encodeFrame(header, lens, bodies)
		if err != nil {
			f.Fatal(err)
		}
		return w
	}
	profile, err := json.Marshal(sqlexec.ProfileExport{Query: "q", TotalNS: 7})
	if err != nil {
		f.Fatal(err)
	}
	// The encoder's own frames must re-encode to themselves, byte for byte.
	var lens []int
	for _, req := range []wire.Request{
		{Op: "ping"},
		{Op: "query", SQL: "SELECT 1 < 2", TimeoutMS: 50, Trace: "1f", Span: "2a"},
		{Op: "execute", Name: "p", Args: []json.RawMessage{[]byte(`1`), []byte(`"a"`), []byte(`true`), []byte(`0.5`)}},
		{Op: "cl.select", Ext: json.RawMessage(`{"sql":"SELECT 1","shards":[0]}`), Bodies: []int{len(chunk), 0, 3}},
	} {
		var bodies [][]byte
		for _, n := range req.Bodies {
			bodies = append(bodies, chunk[:n])
		}
		w := frame(&req, &req.Bodies, bodies...)
		var got wire.Request
		if bodies, err := wire.DecodeFrame(w, &got, &got.Bodies); err != nil || !bytes.Equal(frame(&got, &got.Bodies, bodies...), w) {
			f.Fatalf("request frame %q does not re-encode to itself: %v", w, err)
		}
		f.Add(w)
	}
	for _, resp := range []wire.Response{
		{Code: verr.CodeOK},
		{Code: verr.CodeOverloaded, Msg: "admission shed"},
		{Code: verr.CodeOK, Schema: schema, Profile: profile, Bodies: []int{len(chunk)}},
		{Code: verr.CodeOK, Ext: json.RawMessage(`{"epoch":3}`), Bodies: []int{len(chunk)}},
	} {
		var bodies [][]byte
		for _, n := range resp.Bodies {
			bodies = append(bodies, chunk[:n])
		}
		w := frame(&resp, &resp.Bodies, bodies...)
		var got wire.Response
		if bodies, err := wire.DecodeFrame(w, &got, &got.Bodies); err != nil || !bytes.Equal(frame(&got, &got.Bodies, bodies...), w) {
			f.Fatalf("response frame %q does not re-encode to itself: %v", w, err)
		}
		f.Add(w)
	}
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema[:2]}, &lens, chunk)) // chunk wider than the schema
	empty, err := vft.EncodeChunk(colstore.NewBatch(schema))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema}, &lens, empty))                // no rows
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema}, &lens))                       // a result and no body
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema}, &lens, chunk[:len(chunk)-2])) // truncated chunk

	tcp, err := Listen(nil, "127.0.0.1:0", WithFrontend(fuzzFront{res: &sqlexec.Result{Batch: b}}), WithExtension(fuzzExt{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = tcp.Close() })
	var conn net.Conn
	var in []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var req wire.Request
		if bodies, err := wire.DecodeFrame(data, &req, &req.Bodies); err == nil {
			checkCanonical(t, data, bodies, &req, &req.Bodies, func() (any, *[]int) { r := new(wire.Request); return r, &r.Bodies })
		}
		if conn == nil {
			if conn, err = net.Dial("tcp", tcp.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		answer, err := roundTripRaw(conn, data, in)
		if err != nil {
			t.Fatalf("the server answered %q with no frame: %v", data, err)
		}
		in = answer
		var got wire.Response
		if _, err := wire.DecodeFrame(answer, &got, &got.Bodies); err != nil || got.Code == "" {
			t.Fatalf("the server answered %q with a malformed frame: %v", data, err)
		}

		var resp wire.Response
		bodies, err := wire.DecodeFrame(data, &resp, &resp.Bodies)
		if err != nil {
			return
		}
		checkCanonical(t, data, bodies, &resp, &resp.Bodies, func() (any, *[]int) { r := new(wire.Response); return r, &r.Bodies })
		batch, err := resultBatch(&resp, bodies)
		if err != nil || batch == nil {
			return
		}
		if err := batch.Validate(); err != nil || !batch.Schema.Equal(resp.Schema) {
			t.Fatalf("decoded an invalid result: %v", err)
		}
		if batch.Len() > 4096 {
			return // a run-length bomb: decoded without incident, too big to box here
		}
		cols, rows := boxRows(batch)
		if len(cols) != len(resp.Schema) || len(rows) != batch.Len() {
			t.Fatalf("boxed %d columns x %d rows of a %d x %d result", len(cols), len(rows), len(resp.Schema), batch.Len())
		}
		for i, row := range rows {
			for j, v := range row {
				if want := batch.Cols[j].Value(i); !sameCell(v, want) {
					t.Fatalf("row %d column %d boxed as %#v, the batch holds %#v", i, j, v, want)
				}
			}
		}
	})
}

// checkCanonical: bodies alias data and tile its tail; the decoded frame
// re-encodes to a frame that decodes to the same bodies and re-encodes to
// itself.
func checkCanonical(t *testing.T, data []byte, bodies [][]byte, header any, lens *[]int, fresh func() (any, *[]int)) {
	t.Helper()
	off := len(data)
	for i := len(bodies) - 1; i >= 0; i-- {
		off -= len(bodies[i])
		if off < 4 || (len(bodies[i]) > 0 && &bodies[i][0] != &data[off]) {
			t.Fatalf("body %d does not alias the frame at %d", i, off)
		}
	}
	if off != 4+int(binary.LittleEndian.Uint32(data)) {
		t.Fatalf("bodies start at %d, the header ends at %d", off, 4+binary.LittleEndian.Uint32(data))
	}
	canon, err := encodeFrame(header, lens, bodies)
	if err != nil {
		t.Fatalf("a decoded frame does not re-encode: %v", err)
	}
	again, againLens := fresh()
	bodies2, err := wire.DecodeFrame(canon, again, againLens)
	if err != nil || len(bodies2) != len(bodies) {
		t.Fatalf("canonical frame %q: %d bodies, %v", canon, len(bodies2), err)
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies2[i]) {
			t.Fatalf("body %d changed across a re-encode", i)
		}
	}
	if w, err := encodeFrame(again, againLens, bodies2); err != nil || !bytes.Equal(w, canon) {
		t.Fatalf("canonical frame %q re-encodes to %q (%v)", canon, w, err)
	}
}

// encodeFrame lays out a frame's payload as the wire does: *lens — the
// header's "bodies" field — set to the bodies' lengths, the header's length,
// the header's JSON, the bodies.
func encodeFrame(header any, lens *[]int, bodies [][]byte) ([]byte, error) {
	*lens = nil
	for _, b := range bodies {
		*lens = append(*lens, len(b))
	}
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	return bytes.Join(append([][]byte{binary.LittleEndian.AppendUint32(nil, uint32(len(hdr))), hdr}, bodies...), nil), nil
}

// roundTripRaw sends payload as one frame on conn and reads the one frame
// that answers it into buf.
func roundTripRaw(conn net.Conn, payload, buf []byte) ([]byte, error) {
	if err := wire.WriteFrame(conn, payload); err != nil {
		return nil, err
	}
	return wire.ReadFrame(conn, buf)
}

// sameCell: a boxed cell against the batch's value — INTEGERs box as float64,
// floats compare by bits.
func sameCell(got, want any) bool {
	if n, ok := want.(int64); ok {
		want = float64(n)
	}
	if w, ok := want.(float64); ok {
		g, ok := got.(float64)
		return ok && math.Float64bits(g) == math.Float64bits(w)
	}
	return got == want
}
