// Model cache: deployed models are immutable blobs, but every prediction
// query used to fetch and gob-decode the blob once per UDF instance — with 4
// nodes × 4 instances that is 16 deserializations per query. The block
// scorers only read model state, so one deserialized copy can be shared by
// every concurrent query. Invalidation is versioned: Redeploy/Drop/Deploy
// bump the model's version, and a load that raced the invalidation cannot
// install its (possibly stale) copy because putIfCurrent re-checks the
// version under the lock. This is the cache-invalidation contract DESIGN.md
// §9 documents for the serving layer.
package models

import (
	"sync"

	"verticadr/internal/telemetry"
)

var (
	mCacheHits    = telemetry.Default().Counter("models_cache_total", telemetry.L("result", "hit"))
	mCacheMisses  = telemetry.Default().Counter("models_cache_total", telemetry.L("result", "miss"))
	mInvalidation = telemetry.Default().Counter("models_cache_invalidations_total")
)

type cacheEntry struct {
	model any
	kind  string
}

// modelCache is a versioned read-through cache keyed by model name.
type modelCache struct {
	mu      sync.Mutex
	enabled bool
	vers    map[string]uint64
	entries map[string]cacheEntry
}

func newModelCache() *modelCache {
	return &modelCache{
		enabled: true,
		vers:    map[string]uint64{},
		entries: map[string]cacheEntry{},
	}
}

// snapshot returns the cached entry (if any) and the model's current version.
// A loader that misses must pass the version back to putIfCurrent.
func (c *modelCache) snapshot(name string) (cacheEntry, bool, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled {
		return cacheEntry{}, false, c.vers[name]
	}
	e, ok := c.entries[name]
	return e, ok, c.vers[name]
}

// putIfCurrent installs a loaded model only if no invalidation happened since
// the loader's snapshot — the check that makes a concurrent Redeploy win over
// an in-flight stale read.
func (c *modelCache) putIfCurrent(name string, ver uint64, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled || c.vers[name] != ver {
		return
	}
	c.entries[name] = e
}

// invalidate drops the cached copy and bumps the version, orphaning any
// in-flight loads that started before the call.
func (c *modelCache) invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vers[name]++
	if _, ok := c.entries[name]; ok {
		delete(c.entries, name)
	}
	mInvalidation.Inc()
}

// setEnabled toggles caching; disabling clears all entries (the chaos tests
// use this to make every query reach the model-load fault site).
func (c *modelCache) setEnabled(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enabled = on
	if !on {
		c.entries = map[string]cacheEntry{}
	}
}
