package vft

import (
	"verticadr/internal/telemetry"
	"verticadr/internal/wire"
)

// The buffer pool of the zero-steady-state-allocation transfer path: message
// buffers cycle through the transport's own pool (wire.GetBuf), which the
// worker listeners read their messages into as well, and the hit/miss
// counters make reuse observable (a healthy steady-state transfer shows hits
// dominating misses after warm-up). Decoded batches are not pooled: each is
// a partition's storage for the life of its frame.
//
// Ownership contract: whoever takes a buffer from the pool owns it until the
// explicit return point. ChunkSink.Send implementations must not retain msg
// past the call (the hub decodes eagerly, the TCP sender has written it
// out), which is what lets senders recycle message buffers the moment Send
// returns — a retransmission reuses the still-owned buffer and can never
// observe a recycled one. Only buffers that came from
// getBuf/getBufCap go back: a stored block a message was copied from belongs
// to its segment and is never pooled.
var (
	mPoolHit  = telemetry.Default().Counter("vft_pool_hit_total")
	mPoolMiss = telemetry.Default().Counter("vft_pool_miss_total")
)

// initialBufCap sizes fresh buffers for a default-psize chunk of a few
// numeric columns, so typical transfers never regrow.
const initialBufCap = 64 << 10

// getBuf returns an empty byte buffer from the pool (or a fresh one).
func getBuf() []byte { return getBufCap(0) }

// getBufCap returns an empty byte buffer of at least n bytes' capacity, for a
// caller that knows how much it is about to append.
func getBufCap(n int) []byte {
	if b := wire.GetBuf(n); b != nil {
		mPoolHit.Inc()
		return b
	}
	mPoolMiss.Inc()
	return make([]byte, 0, max(n, initialBufCap))
}

// putBuf returns a buffer to the pool. The caller must not use b afterwards.
func putBuf(b []byte) { wire.PutBuf(b) }
