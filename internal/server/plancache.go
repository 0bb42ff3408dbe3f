package server

import (
	"container/list"
	"sync"

	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
)

var (
	mPlanHits      = telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "hit"))
	mPlanMisses    = telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "miss"))
	mPlanEvictions = telemetry.Default().Counter("server_plan_cache_evictions_total")
)

// planCache is a bounded LRU of parsed (and therefore validated) SELECT
// statements, keyed on normalized SQL text. Cached *Select values are shared
// by concurrent executions, and by the statements binding and planning make
// of them: nothing writes to a tree after Parse, binding and normalizing
// copy only the paths they change (sqlparse.Rewrite), so sharing is safe.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type planEntry struct {
	key string
	sel *sqlparse.Select
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &planCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached plan for key, refreshing its recency. Its caller
// counts the hit or miss: a template found for a run with no arguments is
// no hit.
func (c *planCache) get(key string) (*sqlparse.Select, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry).sel, true
}

// put inserts (or refreshes) a plan, evicting the least recently used entry
// past capacity.
func (c *planCache) put(key string, sel *sqlparse.Select) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planEntry).sel = sel
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&planEntry{key: key, sel: sel})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*planEntry).key)
		mPlanEvictions.Inc()
	}
}

// len reports the current entry count.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
