package cluster

import (
	"context"
	"time"

	"verticadr/internal/wire"
)

// ProbeHealth dials each address directly and collects its self-report:
// the client-side view of the cluster, independent of any router's
// bookkeeping. Unreachable peers come back with Up == false rather than
// an error — partial clusters are an expected state.
func ProbeHealth(ctx context.Context, addrs []string, dialTimeout time.Duration) []NodeHealth {
	out := make([]NodeHealth, len(addrs))
	for i, addr := range addrs {
		out[i] = NodeHealth{Node: i, Addr: addr}
		if rep, err := askHealth(ctx, addr, dialTimeout); err == nil {
			out[i].Up, out[i].Shards = true, rep.Shards
		}
	}
	return out
}

// DiscoverHealth probes a cluster known by any subset of its addresses:
// the first reachable peer reports the full address list, and every
// member of that list is then probed individually. A client dialed at one
// node thereby sees the whole cluster's health. When no peer answers (or
// none reports a peer list — a pre-discovery server), the given addresses
// are probed as-is.
func DiscoverHealth(ctx context.Context, addrs []string, dialTimeout time.Duration) []NodeHealth {
	for _, addr := range addrs {
		if rep, err := askHealth(ctx, addr, dialTimeout); err == nil && len(rep.Peers) > 0 {
			return ProbeHealth(ctx, rep.Peers, dialTimeout)
		}
	}
	return ProbeHealth(ctx, addrs, dialTimeout)
}

// askHealth makes one cl.health round trip on a fresh connection.
func askHealth(ctx context.Context, addr string, dialTimeout time.Duration) (rep healthReply, err error) {
	c, err := wire.Dial(addr, dialTimeout)
	if err != nil {
		return rep, err
	}
	defer c.Close()
	err = clientCall(ctx, c, opHealth, nil, nil, &rep)
	return rep, err
}
