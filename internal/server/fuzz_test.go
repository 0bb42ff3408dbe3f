package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/sqlexec"
	"verticadr/internal/verr"
	"verticadr/internal/vft"
	"verticadr/internal/wire"
)

// fuzzFront executes every statement a server resolved without an engine:
// a fixed two-row result of every column type.
type fuzzFront struct{ res *sqlexec.Result }

func (f fuzzFront) Run(context.Context, *Query) (*sqlexec.Result, error) {
	return f.res, nil
}

// listenFront serves a Server over an empty session, fronted by f, until
// stop.
func listenFront(tb testing.TB, f Frontend, opts ...ListenOption) (tcp *TCPServer, stop func()) {
	tb.Helper()
	sess, err := core.Start(core.Config{DBNodes: 1, DRWorkers: 1, InstancesPerWorker: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tcp, err = Listen(New(sess, Config{}), "127.0.0.1:0", append(opts, WithFrontend(f))...)
	if err != nil {
		sess.Close()
		tb.Fatal(err)
	}
	return tcp, func() { _ = tcp.Close(); sess.Close() }
}

// fuzzExt sends a request's bodies straight back.
type fuzzExt struct{}

func (fuzzExt) ServeExt(_ context.Context, _ *wire.Request, bodies [][]byte) (ExtReply, error) {
	return ExtReply{Ext: []byte{byte(len(bodies))}, Bodies: bodies}, nil
}

// FuzzDecodeFrame feeds arbitrary bytes to both ends of a connection — as a
// request frame to a listening server, as a response frame to the client's
// decoder:
// a header length past the frame, a header varint truncated or in a long
// form, a field, a list or trailing bytes past the header's end, an
// argument of no type, cut short or a BOOLEAN past 1, body lengths
// that would read as negative, overrun the frame or leave bytes over, a
// schema its chunk disagrees with, a schema of no storable type, a result
// announced with no body. None may panic; decoded
// bodies alias the frame (nothing is copied or allocated per body byte); a
// frame that decodes re-encodes to itself, byte for byte; and whatever a
// request holds, the server answers it with a well-formed response frame.
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
	frame := func(h wire.Header, bodies ...[]byte) []byte { return wire.AppendFrame(nil, h, bodies...) }
	profile, err := json.Marshal(sqlexec.ProfileExport{Query: "q", TotalNS: 7})
	if err != nil {
		f.Fatal(err)
	}
	// The encoder's own frames must re-encode to themselves, byte for byte.
	for _, req := range []wire.Request{
		{Op: "ping"},
		{Op: "query", SQL: "SELECT 1 < 2", TimeoutMS: 50, Trace: "1f", Span: "2a"},
		{Op: "execute", Name: "p", Args: []any{int64(1), "a", true, 0.5, math.Float64frombits(0x7ff8deadbeef0001), math.Copysign(0, -1)}},
		{Op: "cl.select", SQL: "SELECT 1", Ext: []byte{1, 0, 0, 0}, Bodies: []int{len(chunk), 0, 3}},
	} {
		var bodies [][]byte
		for _, n := range req.Bodies {
			bodies = append(bodies, chunk[:n])
		}
		w := frame(&req, bodies...)
		var got wire.Request
		if bodies, err := wire.DecodeFrame(w, &got); err != nil || !bytes.Equal(frame(&got, bodies...), w) {
			f.Fatalf("request frame %q does not re-encode to itself: %v", w, err)
		}
		f.Add(w)
	}
	for _, resp := range []wire.Response{
		{Code: verr.CodeOK},
		{Code: verr.CodeOverloaded, Msg: "admission shed"},
		{Code: verr.CodeOK, Schema: schema, Profile: profile, Bodies: []int{len(chunk)}},
		{Code: verr.CodeOK, Ext: []byte{3}, Bodies: []int{len(chunk)}},
	} {
		var bodies [][]byte
		for _, n := range resp.Bodies {
			bodies = append(bodies, chunk[:n])
		}
		w := frame(&resp, bodies...)
		var got wire.Response
		if bodies, err := wire.DecodeFrame(w, &got); err != nil || !bytes.Equal(frame(&got, bodies...), w) {
			f.Fatalf("response frame %q does not re-encode to itself: %v", w, err)
		}
		f.Add(w)
	}
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema[:2]}, chunk)) // chunk wider than the schema
	empty, err := vft.EncodeChunk(colstore.NewBatch(schema))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema}, empty))                // no rows
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema}))                       // a result and no body
	f.Add(frame(&wire.Response{Code: verr.CodeOK, Schema: schema}, chunk[:len(chunk)-2])) // truncated chunk

	tcp, stop := listenFront(f, fuzzFront{res: &sqlexec.Result{Batch: b}}, WithExtension(fuzzExt{}))
	f.Cleanup(stop)
	var conn net.Conn
	var in []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var req wire.Request
		if bodies, err := wire.DecodeFrame(data, &req); err == nil {
			checkCanonical(t, data, bodies, &req, new(wire.Request))
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
		if _, err := wire.DecodeFrame(answer, &got); err != nil || got.Code == "" {
			t.Fatalf("the server answered %q with a malformed frame: %v", data, err)
		}

		var resp wire.Response
		bodies, err := wire.DecodeFrame(data, &resp)
		if err != nil {
			return
		}
		checkCanonical(t, data, bodies, &resp, new(wire.Response))
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

// checkCanonical: bodies alias data and tile its tail, and the decoded
// frame re-encodes to data itself — the header has one encoding — and
// decodes again, into again, to the same bodies.
func checkCanonical(t *testing.T, data []byte, bodies [][]byte, header, again wire.Header) {
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
	canon := wire.AppendFrame(nil, header, bodies...)
	if !bytes.Equal(canon, data) {
		t.Fatalf("frame %q re-encodes to %q", data, canon)
	}
	bodies2, err := wire.DecodeFrame(canon, again)
	if err != nil || len(bodies2) != len(bodies) {
		t.Fatalf("re-encoded frame %q: %d bodies, %v", canon, len(bodies2), err)
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies2[i]) {
			t.Fatalf("body %d changed across a re-encode", i)
		}
	}
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
