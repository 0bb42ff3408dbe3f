package vft

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"verticadr/internal/wire"
)

// ChunkSink is where export UDF instances push encoded chunks. The in-proc
// Hub implements it directly; a transfer's TCP sender implements it over the
// serving transport so the database and Distributed R can run as separate
// processes/machines (the paper: "The new transfer mechanism works
// irrespective of whether R instances are on the same or different nodes as
// the database").
//
// msg is a run of one or more chunks (colstore.AppendChunk) holding rows rows
// in all. Implementations must not retain msg past the call: the sender owns
// the buffer and recycles it once Send returns (the pooled-buffer contract;
// the Hub decodes eagerly, the TCP sender has written it to the socket).
type ChunkSink interface {
	Send(sessionID string, part int, seq uint64, msg []byte, rows int, dbTime time.Duration) error
}

var _ ChunkSink = (*Hub)(nil)

// opSend is the one op a worker listener serves: a message for a
// partition's staging area. The request's Ext is a sendHeader, the message
// the one body, and the reply a bare ok or the Hub's error, coded.
const opSend = "vft.send"

// sendHeader says where a message goes. On the wire it is the request's Ext,
// its fields in order in the wire package's field codec: session | part |
// seq | rows | db_ns, the session a string field, seq a uvarint and the rest
// zigzag varints.
type sendHeader struct {
	Session string
	Part    int
	Seq     uint64
	Rows    int
	DBNanos int64
}

func (m *sendHeader) appendTo(b []byte) []byte {
	b = wire.AppendField(b, m.Session)
	b = binary.AppendVarint(b, int64(m.Part))
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, int64(m.Rows))
	return binary.AppendVarint(b, m.DBNanos)
}

func (m *sendHeader) decode(ext []byte) error {
	d := wire.NewDecoder(ext)
	m.Session = d.Str()
	m.Part = d.Int()
	m.Seq = d.Uvarint()
	m.Rows = d.Int()
	m.DBNanos = d.Varint()
	return d.End()
}

// TCPService runs one listener of the serving transport per Distributed R
// worker; messages received on them are staged into the Hub exactly as
// in-process sends are — the "workers start listening for network
// connections from Vertica processes" step of §3.1. It also holds the
// database side's connections to those listeners, which every transfer's
// export instances send through.
type TCPService struct {
	listeners []*wire.Listener
	sender    tcpSender
}

// ServeTCP starts `workers` loopback listeners feeding the hub. They count
// into their own series — vft_conns, vft_proto_requests_total and
// vft_wire_bytes_total{dir} — not the serving protocol's server_* ones.
func ServeTCP(hub *Hub, workers int) (*TCPService, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("vft: need at least one worker listener")
	}
	s := &TCPService{}
	for i := 0; i < workers; i++ {
		l, err := wire.Listen("127.0.0.1:0", "vft", hub.serveSend)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("vft: listen: %w", err)
		}
		s.listeners = append(s.listeners, l)
	}
	s.sender = newTCPSender(s.Addrs())
	return s, nil
}

// Addrs returns the per-worker listener addresses — the hosts argument of
// the ExportToDistributedR call (Fig. 4).
func (s *TCPService) Addrs() []string {
	addrs := make([]string, len(s.listeners))
	for i, l := range s.listeners {
		addrs[i] = l.Addr()
	}
	return addrs
}

// Close stops all listeners, waits for their connections' handlers and
// closes the sender's idle connections. Idempotent.
func (s *TCPService) Close() error {
	for _, l := range s.listeners {
		l.Close()
	}
	s.sender.Close()
	return nil
}

// serveSend is a worker listener's handler. The message body aliases the
// connection's read buffer, which is safe: Hub.Send decodes it before
// returning.
func (h *Hub) serveSend(_ context.Context, req *wire.Request, bodies [][]byte, out *wire.Reply) error {
	if req.Op != opSend {
		return fmt.Errorf("vft: unknown op %q", req.Op)
	}
	var m sendHeader
	if err := m.decode(req.Ext); err != nil {
		return fmt.Errorf("vft: bad %s header: %w", opSend, err)
	}
	if len(bodies) != 1 {
		return fmt.Errorf("vft: %s carries %d bodies, want the message alone", opSend, len(bodies))
	}
	h.addNet(m.Session, out.ReadTime())
	return h.Send(m.Session, m.Part, m.Seq, bodies[0], m.Rows, time.Duration(m.DBNanos))
}

// sendTimeout bounds one attempt to send a message: a wedged receiver cannot
// hang the exporter.
const sendTimeout = 10 * time.Second

// tcpSender sends messages to worker listeners: a pool of connections per
// listener (index == target partition, which equals the worker index under
// both policies) and one Call per Send. A Send checks its connection out for
// the one round trip, so concurrent transfers never share a connection in
// flight, and only the Send that saw a connection fail closes it; idle
// connections outlive a transfer. It does not retry: the export's send loop
// does.
type tcpSender []*wire.Pool

func newTCPSender(addrs []string) tcpSender {
	s := make(tcpSender, len(addrs))
	for i, addr := range addrs {
		s[i] = wire.NewPool(addr, sendTimeout)
	}
	return s
}

var _ ChunkSink = tcpSender(nil)

// Send implements ChunkSink: the message is the body of one vft.send, sent
// uncopied, under a sendTimeout deadline.
func (s tcpSender) Send(sessionID string, part int, seq uint64, msg []byte, rows int, dbTime time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), sendTimeout)
	defer cancel()
	return s.send(ctx, sendHeader{Session: sessionID, Part: part, Seq: seq, Rows: rows, DBNanos: dbTime.Nanoseconds()}, msg)
}

// send makes the one round trip. A connection that saw any error is closed,
// never pooled, so a later Send cannot inherit a poisoned stream.
func (s tcpSender) send(ctx context.Context, m sendHeader, msg []byte) error {
	if m.Part < 0 || m.Part >= len(s) {
		return fmt.Errorf("vft: no listener for partition %d", m.Part)
	}
	c, _, err := s[m.Part].Get()
	if err != nil {
		return err
	}
	if _, _, err := c.Call(ctx, opSend, m.appendTo(nil), [][]byte{msg}); err != nil {
		_ = c.Close()
		return err
	}
	s[m.Part].Put(c)
	return nil
}

// Close closes the idle connections.
func (s tcpSender) Close() {
	for _, p := range s {
		p.Flush()
	}
}
