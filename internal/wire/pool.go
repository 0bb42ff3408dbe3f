package wire

import (
	"sync"
	"time"
)

// Idle connections are bounded and aged out: a burst of concurrent calls
// must not leave a permanent pile of sockets, and a connection that sat
// idle long enough for the peer to have bounced is cheaper to re-dial than
// to fail a call with.
const (
	poolMaxIdle = 8
	poolIdleTTL = 30 * time.Second
)

// Pool keeps idle connections to one address. Connections are checked out
// per call; a connection that saw a transport error is closed by the caller
// instead of returned, so the pool only ever holds connections whose last
// round trip succeeded.
type Pool struct {
	addr        string
	dialTimeout time.Duration

	mu   sync.Mutex
	idle []pooledConn
}

type pooledConn struct {
	c     *Client
	since time.Time // when the connection went idle
}

// NewPool returns an empty pool of connections to addr, each dialed under
// dialTimeout.
func NewPool(addr string, dialTimeout time.Duration) *Pool {
	return &Pool{addr: addr, dialTimeout: dialTimeout}
}

// Get returns the freshest idle connection (pooled=true) or dials a new one;
// connections idle past poolIdleTTL are closed on the way. Dial failures
// carry verr.ErrNodeDown (see Dial), which a router's failover classifies as
// retryable.
func (p *Pool) Get() (c *Client, pooled bool, err error) {
	cutoff := time.Now().Add(-poolIdleTTL)
	p.mu.Lock()
	for n := len(p.idle); n > 0; n-- {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		if pc.since.After(cutoff) {
			p.mu.Unlock()
			return pc.c, true, nil
		}
		_ = pc.c.Close()
	}
	p.mu.Unlock()
	c, err = p.Dial()
	return c, false, err
}

// Dial opens a fresh connection, bypassing the idle list.
func (p *Pool) Dial() (*Client, error) { return Dial(p.addr, p.dialTimeout) }

// Put returns a healthy connection for reuse (closed instead when the idle
// list is full). Its last reply's bodies are no longer valid: a large read
// buffer goes back to the buffer pool instead of idling with the connection.
func (p *Pool) Put(c *Client) {
	c.mu.Lock()
	c.rd.shed()
	c.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= poolMaxIdle {
		_ = c.Close()
		return
	}
	p.idle = append(p.idle, pooledConn{c: c, since: time.Now()})
}

// Flush closes every idle connection: once one pooled connection to a peer
// turns out to be dead, its idle siblings almost certainly predate the
// same restart.
func (p *Pool) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range p.idle {
		_ = pc.c.Close()
	}
	p.idle = nil
}
