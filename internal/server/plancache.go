package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"verticadr/internal/plan"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/telemetry"
)

var (
	mPlanHits      = telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "hit"))
	mPlanMisses    = telemetry.Default().Counter("server_plan_cache_total", telemetry.L("result", "miss"))
	mPlanEvictions = telemetry.Default().Counter("server_plan_cache_evictions_total")
)

// How an execution of a cached SELECT got its plan: the template's generic
// plan, bound to the execution's arguments; a plan of its own, of the bound
// statement (a Custom template, or arguments the generic plan cannot take);
// or the generic plan built anew because the tables moved (plan.Fits).
const (
	PlanGeneric = "generic"
	PlanCustom  = "custom"
	PlanRebuilt = "rebuilt"
)

var mPlans = map[string]*telemetry.Counter{
	PlanGeneric: telemetry.Default().Counter("server_plans_total", telemetry.L("plan", PlanGeneric)),
	PlanCustom:  telemetry.Default().Counter("server_plans_total", telemetry.L("plan", PlanCustom)),
	PlanRebuilt: telemetry.Default().Counter("server_plans_total", telemetry.L("plan", PlanRebuilt)),
}

// planCache is a bounded LRU of SELECT templates, keyed on catalog epoch
// plus normalized SQL text. A Template is shared by concurrent executions,
// and by the statements and plans they make of it: nothing writes to a
// parse after Parse (binding and normalizing copy only the paths they
// change, sqlparse.Rewrite), nor to a plan after Build (Plan.Bind copies
// what it fills in), so sharing is safe.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type planEntry struct {
	key string
	t   *Template
}

// Template is a plan-cache entry: one SELECT's parse, placeholders and all,
// the generic plans made of it — one per shard set it ran over, the whole
// database's among them — and what a Frontend derives from it once (Route).
// Nothing in it holds a snapshot, a segment or a statistics handle.
type Template struct {
	Sel *sqlparse.Select

	mu    sync.Mutex
	plans map[string]*plan.Plan // shard set -> generic plan
	route atomic.Pointer[any]
}

func newTemplate(sel *sqlparse.Select) *Template {
	return &Template{Sel: sel, plans: map[string]*plan.Plan{}}
}

// Plan returns the plan an execution with args runs over db — a snapshot
// of the shard set named set ("" the whole database) — and how it got it
// (PlanGeneric, PlanCustom, PlanRebuilt). The generic plan is built at the
// first execution over the set and again whenever it no longer fits db;
// the returned plan is its Bind. A Custom template, or args the generic
// plan cannot take, plans the bound statement. The plan's choices depend
// on the statistics of the shards it was built over, hence one per set.
func (t *Template) Plan(db sqlexec.Database, set string, args []any) (*plan.Plan, string, error) {
	t.mu.Lock()
	g := t.plans[set]
	t.mu.Unlock()
	path := PlanGeneric
	if g == nil || !g.Custom && !g.Fits(db) {
		if g != nil {
			path = PlanRebuilt
		}
		var err error
		if g, err = plan.Build(t.Sel, db); err != nil {
			return nil, "", err
		}
		t.mu.Lock()
		t.plans[set] = g
		t.mu.Unlock()
	}
	if p, ok := g.Bind(args); ok {
		mPlans[path].Inc()
		return p, path, nil
	}
	bound, err := sqlparse.BindSelect(t.Sel, args)
	if err != nil {
		return nil, "", err
	}
	p, err := plan.Build(bound, db)
	if err != nil {
		return nil, "", err
	}
	mPlans[PlanCustom].Inc()
	return p, PlanCustom, nil
}

// Route returns what derive makes of the template, derived once: the first
// result derive returns without an error is kept with the entry, and every
// later call returns it. A Frontend keeps what it derives from a statement
// and not from its arguments here — a cluster router, how it merges the
// shards' answers.
func (t *Template) Route(derive func(sel *sqlparse.Select) (any, error)) (any, error) {
	if v := t.route.Load(); v != nil {
		return *v, nil
	}
	v, err := derive(t.Sel)
	if err != nil {
		return nil, err
	}
	t.route.Store(&v)
	return v, nil
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &planCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// lookup returns the cached template for key, refreshing its recency. Its
// caller counts the hit or miss: a template found for a run with no
// arguments is no hit.
func (c *planCache) lookup(key string) (*Template, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry).t, true
}

// get is lookup's parse, for Prepare, which keeps a cached template.
func (c *planCache) get(key string) (*sqlparse.Select, bool) {
	t, ok := c.lookup(key)
	if !ok {
		return nil, false
	}
	return t.Sel, true
}

// put caches sel under key and returns its template, evicting the least
// recently used entry past capacity. A key cached with another parse gets
// a template of sel's, without the old one's plans.
func (c *planCache) put(key string, sel *sqlparse.Select) *Template {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*planEntry)
		if e.t.Sel != sel {
			e.t = newTemplate(sel)
		}
		return e.t
	}
	t := newTemplate(sel)
	c.items[key] = c.ll.PushFront(&planEntry{key: key, t: t})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*planEntry).key)
		mPlanEvictions.Inc()
	}
	return t
}

// len reports the current entry count.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
