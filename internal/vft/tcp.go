package vft

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ChunkSink is where export UDF instances push encoded chunks. The in-proc
// Hub implements it directly; TCPClient implements it over real sockets so
// the database and Distributed R can run as separate processes/machines
// (the paper: "The new transfer mechanism works irrespective of whether R
// instances are on the same or different nodes as the database").
//
// msg is a run of one or more chunks (colstore.AppendChunk) holding rows rows
// in all. Implementations must not retain msg past the call: the sender owns
// the buffer and recycles it once Send returns (the pooled-buffer contract;
// the Hub decodes eagerly, TCPClient has written it to the socket).
type ChunkSink interface {
	Send(sessionID string, part int, seq uint64, msg []byte, rows int, dbTime time.Duration) error
}

var _ ChunkSink = (*Hub)(nil)

// Frame layout (little-endian):
//
//	u32 payload length, then payload:
//	  uvarint len(session) | session | uvarint part | uvarint seq |
//	  uvarint rows | uvarint dbTimeNanos | chunks (rest of payload)
//	reply: 1 status byte (0 ok) | on error: u16 length + message

// TCPService runs one listener per Distributed R worker; received frames
// are staged into the Hub exactly as in-process sends are. This is the
// "workers start listening for network connections from Vertica processes"
// step of §3.1.
type TCPService struct {
	hub       *Hub
	listeners []net.Listener
	addrs     []string
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// ServeTCP starts `workers` loopback listeners feeding the hub.
func ServeTCP(hub *Hub, workers int) (*TCPService, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("vft: need at least one worker listener")
	}
	s := &TCPService{hub: hub}
	for i := 0; i < workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("vft: listen: %w", err)
		}
		s.listeners = append(s.listeners, ln)
		s.addrs = append(s.addrs, ln.Addr().String())
		s.wg.Add(1)
		go s.acceptLoop(ln)
	}
	return s, nil
}

// Addrs returns the per-worker listener addresses — the hosts argument of
// the ExportToDistributedR call (Fig. 4).
func (s *TCPService) Addrs() []string { return append([]string(nil), s.addrs...) }

// Close stops all listeners and waits for handler goroutines.
func (s *TCPService) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *TCPService) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

func (s *TCPService) handle(conn net.Conn) {
	// One pooled frame buffer per connection, reused across frames: the hub
	// decodes each chunk before dispatch returns, so no frame outlives its
	// iteration and the reader is allocation-free in steady state.
	payload := getBuf()
	defer func() { putBuf(payload) }()
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return // EOF or closed
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > MaxFrameBytes {
			writeReply(conn, fmt.Errorf("vft: frame too large (%d bytes)", n))
			return
		}
		// Time the payload read only: the length-prefix read blocks waiting
		// for the next frame, which is sender idle time, not transfer time.
		start := time.Now()
		frame, err := readPayload(conn, int(n), payload)
		if err != nil {
			return
		}
		payload = frame
		netTime := time.Since(start)
		err = s.dispatch(payload, netTime)
		if writeReply(conn, err) != nil {
			return
		}
	}
}

func (s *TCPService) dispatch(payload []byte, netTime time.Duration) error {
	session, rest, err := readString(payload)
	if err != nil {
		return err
	}
	part, m := binary.Uvarint(rest)
	if m <= 0 {
		return fmt.Errorf("vft: corrupt frame (part)")
	}
	rest = rest[m:]
	seq, m := binary.Uvarint(rest)
	if m <= 0 {
		return fmt.Errorf("vft: corrupt frame (seq)")
	}
	rest = rest[m:]
	rows, m := binary.Uvarint(rest)
	if m <= 0 {
		return fmt.Errorf("vft: corrupt frame (rows)")
	}
	rest = rest[m:]
	nanos, m := binary.Uvarint(rest)
	if m <= 0 {
		return fmt.Errorf("vft: corrupt frame (time)")
	}
	rest = rest[m:]
	// No defensive copy: Hub.Send decodes the chunk before returning, so the
	// connection's reused frame buffer is safe to overwrite afterwards.
	s.hub.addNet(session, netTime)
	return s.hub.Send(session, int(part), seq, rest, int(rows), time.Duration(nanos))
}

func readString(b []byte) (string, []byte, error) {
	l, m := binary.Uvarint(b)
	if m <= 0 || uint64(len(b)-m) < l {
		return "", nil, fmt.Errorf("vft: corrupt frame (string)")
	}
	return string(b[m : m+int(l)]), b[m+int(l):], nil
}

func writeReply(conn net.Conn, err error) error {
	if err == nil {
		_, werr := conn.Write([]byte{0})
		return werr
	}
	msg := err.Error()
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	buf := make([]byte, 3+len(msg))
	buf[0] = 1
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(msg)))
	copy(buf[3:], msg)
	_, werr := conn.Write(buf)
	return werr
}

// TCPClient is the database-side sender: it dials worker listeners and
// frames chunks onto sockets, with a small per-address connection pool so
// concurrent UDF instances reuse connections. Send retries failed attempts
// on a fresh connection with exponential backoff, and every attempt runs
// under a deadline so a wedged receiver cannot hang the exporter.
type TCPClient struct {
	addrs []string

	// Attempts caps how many times Send tries a chunk (default 3). Each
	// retry reconnects: a connection that saw any error is closed, never
	// pooled.
	Attempts int
	// Backoff is the sleep before the first retry, doubling per attempt
	// (default 2ms).
	Backoff time.Duration
	// Timeout bounds each attempt's socket I/O (default 10s).
	Timeout time.Duration

	mu   sync.Mutex
	pool map[string][]net.Conn
}

// NewTCPClient builds a sender for the given worker addresses (index ==
// target partition, which equals the worker index under both policies).
func NewTCPClient(addrs []string) *TCPClient {
	return &TCPClient{addrs: addrs, pool: map[string][]net.Conn{}}
}

func (c *TCPClient) attempts() int {
	if c.Attempts > 0 {
		return c.Attempts
	}
	return 3
}

func (c *TCPClient) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 2 * time.Millisecond
}

func (c *TCPClient) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 10 * time.Second
}

var _ ChunkSink = (*TCPClient)(nil)

func (c *TCPClient) getConn(addr string) (net.Conn, error) {
	c.mu.Lock()
	conns := c.pool[addr]
	if len(conns) > 0 {
		conn := conns[len(conns)-1]
		c.pool[addr] = conns[:len(conns)-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	return net.Dial("tcp", addr)
}

func (c *TCPClient) putConn(addr string, conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pool[addr] = append(c.pool[addr], conn)
}

// Send implements ChunkSink over TCP with a synchronous ack. A failed
// attempt (dial, write, ack read, or deadline) closes its connection and is
// retried on a fresh one after exponential backoff; since the receiver's
// (part, seq) dedup makes retransmission idempotent, a chunk whose ack was
// lost in flight is simply sent again.
//
// The frame goes out through WriteFrame — one vectored write (writev on a TCP
// connection) of the length prefix, a small header (session, part, seq, rows,
// time) built once, and msg itself, uncopied. Every retransmission reuses the
// same two slices (Send still owns both), and msg is only read, honoring the
// ChunkSink contract.
func (c *TCPClient) Send(sessionID string, part int, seq uint64, msg []byte, rows int, dbTime time.Duration) error {
	if part < 0 || part >= len(c.addrs) {
		return fmt.Errorf("vft: no listener for partition %d", part)
	}
	addr := c.addrs[part]

	hdr := make([]byte, 0, 5*binary.MaxVarintLen64+len(sessionID))
	hdr = binary.AppendUvarint(hdr, uint64(len(sessionID)))
	hdr = append(hdr, sessionID...)
	hdr = binary.AppendUvarint(hdr, uint64(part))
	hdr = binary.AppendUvarint(hdr, seq)
	hdr = binary.AppendUvarint(hdr, uint64(rows))
	hdr = binary.AppendUvarint(hdr, uint64(dbTime.Nanoseconds()))

	var err error
	backoff := c.backoff()
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			mRetransmits.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = c.sendOnce(addr, hdr, msg); err == nil {
			return nil
		}
	}
	return fmt.Errorf("vft: send to %s failed after %d attempts: %w", addr, c.attempts(), err)
}

// sendOnce runs one framed request/ack exchange under the per-attempt
// deadline. The connection is pooled only after a fully clean exchange;
// any error closes it so a later Send cannot inherit a poisoned stream.
func (c *TCPClient) sendOnce(addr string, hdr, msg []byte) error {
	conn, err := c.getConn(addr)
	if err != nil {
		return fmt.Errorf("vft: dial %s: %w", addr, err)
	}
	ok := false
	defer func() {
		if ok {
			c.putConn(addr, conn)
		} else {
			conn.Close()
		}
	}()
	if err := conn.SetDeadline(time.Now().Add(c.timeout())); err != nil {
		return fmt.Errorf("vft: set deadline: %w", err)
	}

	if err := WriteFrame(conn, hdr, msg); err != nil {
		return fmt.Errorf("vft: send frame: %w", err)
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		return fmt.Errorf("vft: read ack: %w", err)
	}
	if status[0] != 0 {
		var lb [2]byte
		if _, err := io.ReadFull(conn, lb[:]); err != nil {
			return fmt.Errorf("vft: read error reply: %w", err)
		}
		msg := make([]byte, binary.LittleEndian.Uint16(lb[:]))
		if _, err := io.ReadFull(conn, msg); err != nil {
			return fmt.Errorf("vft: read error reply: %w", err)
		}
		return fmt.Errorf("vft: remote: %s", msg)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("vft: clear deadline: %w", err)
	}
	ok = true
	return nil
}

// Close drains the connection pool.
func (c *TCPClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, conns := range c.pool {
		for _, conn := range conns {
			conn.Close()
		}
	}
	c.pool = map[string][]net.Conn{}
}
