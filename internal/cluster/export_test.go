package cluster

import (
	"testing"

	"verticadr/internal/core"
)

// The external test package (cluster_test) drives a cluster through the
// public verticadr.Client, which this package cannot import. These are its
// handles on the in-process harness.

// StartTestCluster is startCluster: the peers' listen addresses and each
// node's router.
func StartTestCluster(t *testing.T, peers, shards, replicas int) (addrs []string, routers []*Router) {
	tc := startCluster(t, peers, shards, replicas)
	for _, n := range tc.nodes {
		addrs = append(addrs, n.addr)
		routers = append(routers, n.router)
	}
	return addrs, routers
}

// SetBuildLimit lowers r's broadcast limit from maxJoinBuildBytes.
func (r *Router) SetBuildLimit(bytes int) { r.buildLimit = bytes }

// StartTestBaseline is startBaseline: the single-process session a cluster
// of that many shards must match bit for bit.
func StartTestBaseline(t *testing.T, shards int) *core.Session { return startBaseline(t, shards) }
