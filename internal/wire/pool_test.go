package wire

import (
	"net"
	"testing"
	"time"
)

// The idle pool is bounded and ages connections out.
func TestPoolCapAndTTL(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			_ = conn
		}
	}()
	p := NewPool(l.Addr().String(), time.Second)
	for i := 0; i < poolMaxIdle+3; i++ {
		c, err := p.Dial()
		if err != nil {
			t.Fatal(err)
		}
		p.Put(c)
	}
	if got := len(p.idle); got != poolMaxIdle {
		t.Fatalf("idle after overfill = %d, want cap %d", got, poolMaxIdle)
	}
	c, pooled, err := p.Get()
	if err != nil || !pooled {
		t.Fatalf("get from warm pool = (pooled=%v, err=%v), want pooled", pooled, err)
	}
	p.Put(c)
	// Age every idle connection past the TTL: the next get must discard
	// them all and dial fresh.
	p.mu.Lock()
	for i := range p.idle {
		p.idle[i].since = time.Now().Add(-poolIdleTTL - time.Minute)
	}
	p.mu.Unlock()
	c, pooled, err = p.Get()
	if err != nil || pooled {
		t.Fatalf("get over expired pool = (pooled=%v, err=%v), want fresh dial", pooled, err)
	}
	_ = c.Close()
	if got := len(p.idle); got != 0 {
		t.Fatalf("idle after TTL sweep = %d, want 0", got)
	}
	p.Flush()
}
