package cluster

import (
	"reflect"
	"slices"
	"testing"
)

// A read filters the shard's owners into a slice of its own: marking a
// replica down or stale and reading around it leaves Topology.Owners and
// the router's precomputed owner lists as they were.
func TestReplicaOrderLeavesOwnersUnchanged(t *testing.T) {
	r, err := NewRouter(Config{Addrs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, Replicas: 3, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := make([][]int, r.topo.Shards)
	for s := range want {
		want[s] = r.topo.Owners(s)
	}
	r.markDown(1)
	r.markStale(2, 0)
	var buf [4]int
	for round := 0; round < 3; round++ {
		for s := range want {
			// The router fronts no node: the owners in ring order, less
			// peer 1 (down) and, for shard 0, peer 2 (stale).
			usable := slices.DeleteFunc(slices.Clone(want[s]), func(p int) bool { return p == 1 || s == 0 && p == 2 })
			if order, _ := r.replicas(s, buf[:0]); !slices.Equal(order, usable) {
				t.Fatalf("shard %d: replicas %v, want %v", s, order, usable)
			}
		}
	}
	r.markUp(1)
	for s := range want {
		if got := r.topo.Owners(s); !reflect.DeepEqual(got, want[s]) {
			t.Fatalf("Topology.Owners(%d) = %v after reads, want %v", s, got, want[s])
		}
		if !reflect.DeepEqual(r.owners[s], want[s]) {
			t.Fatalf("precomputed owners of shard %d = %v after reads, want %v", s, r.owners[s], want[s])
		}
		if order, _ := r.replicas(s, nil); !slices.Contains(order, 1) && slices.Contains(want[s], 1) {
			t.Fatalf("shard %d: replicas %v after markUp(1)", s, order)
		}
	}
}
