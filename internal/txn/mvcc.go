// Package txn is a multi-version table store providing snapshot isolation
// over the append-only column store. The engine never updates rows in place
// — ingest appends, DDL creates or drops whole tables — so a "version" is
// simply an immutable list of per-node segments published at a commit
// timestamp. A snapshot pins a timestamp: every read through it sees exactly
// the versions committed at or before that instant, no matter how many
// COPYs, INSERTs or model redeploys commit while the read runs. Writers
// never block readers (they publish fresh versions built from copy-on-write
// segment clones) and readers never block writers; garbage collection prunes
// versions no active snapshot can reach.
package txn

import (
	"sort"
	"sync"

	"verticadr/internal/colstore"
	"verticadr/internal/telemetry"
)

// MVCC observability, served through the admin /metrics endpoint.
var (
	gActiveSnaps = telemetry.Default().Gauge("txn_active_snapshots")
	mCommits     = telemetry.Default().Counter("txn_commits_total")
	mPruned      = telemetry.Default().Counter("txn_versions_pruned_total")
)

// version is one published state of a table: the segment list as of commit
// timestamp ts, or a drop tombstone. Segments inside a published version are
// immutable — the write path clones before appending.
type version struct {
	ts      uint64
	segs    []*colstore.Segment
	dropped bool
}

// table is a version chain, ascending by commit timestamp.
type table struct {
	versions []version
}

// visibleAt returns the newest version committed at or before ts.
func (t *table) visibleAt(ts uint64) (version, bool) {
	// Chains are short (GC trims them to the active-snapshot window), so a
	// reverse linear scan beats binary search in practice.
	for i := len(t.versions) - 1; i >= 0; i-- {
		if t.versions[i].ts <= ts {
			return t.versions[i], true
		}
	}
	return version{}, false
}

// Store is the MVCC table store.
type Store struct {
	mu       sync.Mutex
	commitTS uint64
	tables   map[string]*table
	snaps    map[uint64]int // pinned timestamp -> reference count
}

// NewStore returns an empty store at commit timestamp 0.
func NewStore() *Store {
	return &Store{tables: make(map[string]*table), snaps: make(map[uint64]int)}
}

// Put publishes a new version of the table (creating it if absent) at the
// next commit timestamp. The segment list is owned by the store afterwards:
// callers must not append to those segments again — mutate a Clone instead
// and Put the result.
func (s *Store) Put(name string, segs []*colstore.Segment) uint64 {
	return s.publish(name, version{segs: segs})
}

// Drop publishes a tombstone: snapshots taken before the drop still read the
// table, snapshots taken after see it gone.
func (s *Store) Drop(name string) uint64 {
	return s.publish(name, version{dropped: true})
}

func (s *Store) publish(name string, v version) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitTS++
	v.ts = s.commitTS
	t := s.tables[name]
	if t == nil {
		t = &table{}
		s.tables[name] = t
	}
	t.versions = append(t.versions, v)
	mCommits.Inc()
	s.gcLocked()
	return v.ts
}

// Latest returns the head version's segments (the state a new writer builds
// on), or ok=false if the table does not exist or is dropped at head.
func (s *Store) Latest(name string) ([]*colstore.Segment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[name]
	if t == nil || len(t.versions) == 0 {
		return nil, false
	}
	head := t.versions[len(t.versions)-1]
	if head.dropped {
		return nil, false
	}
	return head.segs, true
}

// Snap is a pinned snapshot: reads through it see the store exactly as of
// its timestamp. Release it when the query finishes so GC can advance.
type Snap struct {
	store *Store
	ts    uint64

	release sync.Once
}

// Snapshot pins the current commit timestamp and returns a snapshot reading
// at it.
func (s *Store) Snapshot() *Snap {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps[s.commitTS]++
	gActiveSnaps.Add(1)
	return &Snap{store: s, ts: s.commitTS}
}

// Segments returns the table's segments as of the snapshot, or ok=false if
// the table did not exist (or was dropped) at that instant. The returned
// segments are immutable; they remain valid after Release (Go's GC keeps
// them alive), but holding the Snap is what keeps version pruning honest.
func (sn *Snap) Segments(name string) ([]*colstore.Segment, bool) {
	s := sn.store
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[name]
	if t == nil {
		return nil, false
	}
	v, ok := t.visibleAt(sn.ts)
	if !ok || v.dropped {
		return nil, false
	}
	return v.segs, true
}

// Tables lists the table names visible at the snapshot, sorted.
func (sn *Snap) Tables() []string {
	s := sn.store
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, t := range s.tables {
		if v, ok := t.visibleAt(sn.ts); ok && !v.dropped {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Release unpins the snapshot. Idempotent; after the last release of the
// oldest snapshot, GC may prune the versions only it could see.
func (sn *Snap) Release() {
	sn.release.Do(func() {
		s := sn.store
		s.mu.Lock()
		defer s.mu.Unlock()
		if n := s.snaps[sn.ts]; n <= 1 {
			delete(s.snaps, sn.ts)
		} else {
			s.snaps[sn.ts] = n - 1
		}
		gActiveSnaps.Add(-1)
		s.gcLocked()
	})
}

// horizonLocked is the oldest timestamp any reader can still demand: the
// minimum pinned snapshot timestamp, or the head timestamp when nothing is
// pinned.
func (s *Store) horizonLocked() uint64 {
	h := s.commitTS
	for ts := range s.snaps {
		if ts < h {
			h = ts
		}
	}
	return h
}

// gcLocked prunes table versions no snapshot can reach: for each table it
// keeps every version newer than the horizon plus the single newest version
// at or below it (the one a horizon-aged snapshot reads). Tables whose only
// surviving version is a tombstone older than the horizon are removed
// entirely.
func (s *Store) gcLocked() {
	h := s.horizonLocked()
	for name, t := range s.tables {
		// Index of the newest version with ts <= h; everything before it is dead.
		keepFrom := 0
		for i, v := range t.versions {
			if v.ts <= h {
				keepFrom = i
			}
		}
		if keepFrom > 0 {
			pruned := keepFrom
			t.versions = append([]version(nil), t.versions[keepFrom:]...)
			mPruned.Add(int64(pruned))
		}
		if len(t.versions) == 1 && t.versions[0].dropped && t.versions[0].ts <= h {
			delete(s.tables, name)
			mPruned.Inc()
		}
	}
}
