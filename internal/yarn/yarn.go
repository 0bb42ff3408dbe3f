// Package yarn is the resource-broker substitute of §6: a two-level
// scheduler where applications (the database, Distributed R sessions)
// request containers with CPU/memory demands and node-locality preferences,
// and queues with capacity shares arbitrate between them. Containers model
// cgroup enforcement by bookkeeping: a node never hands out more cores or
// memory than it has, so co-located database and R work is isolated by
// construction. The database acquires long-lived containers at startup;
// Distributed R sessions request containers per session and release them at
// shutdown, exactly the division of lifetimes the paper describes.
package yarn

import (
	"fmt"
	"sort"
	"sync"

	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
)

// Scheduler observability: grants/denials/releases per queue, how often a
// request had to block for resources, locality outcomes, and the number of
// containers currently outstanding.
var (
	mGrants = func(queue string) *telemetry.Counter {
		return telemetry.Default().Counter("yarn_grants_total", telemetry.L("queue", queue))
	}
	mDenials = func(queue string) *telemetry.Counter {
		return telemetry.Default().Counter("yarn_denials_total", telemetry.L("queue", queue))
	}
	mReleases = func(queue string) *telemetry.Counter {
		return telemetry.Default().Counter("yarn_releases_total", telemetry.L("queue", queue))
	}
	mWaits    = telemetry.Default().Counter("yarn_request_waits_total")
	mLocality = func(hit string) *telemetry.Counter {
		return telemetry.Default().Counter("yarn_locality_total", telemetry.L("preference", hit))
	}
	gOutstanding = telemetry.Default().Gauge("yarn_containers_outstanding")
)

// NodeResources is a node's capacity.
type NodeResources struct {
	Cores    int
	MemoryMB int
}

// Config configures a ResourceManager.
type Config struct {
	Nodes []NodeResources
	// Queues maps queue name to capacity share in (0, 1]; shares should sum
	// to <= 1. A queue may exceed its share only when the cluster has idle
	// resources (capacity-scheduler elasticity).
	Queues map[string]float64
}

// Container is one granted allocation.
type Container struct {
	ID       int
	Node     int
	Cores    int
	MemoryMB int
	app      *App
}

// App is a registered application (framework application master).
type App struct {
	rm    *ResourceManager
	Name  string
	Queue string
}

// ResourceManager grants and tracks containers.
type ResourceManager struct {
	cfg     Config
	mu      sync.Mutex
	cond    *sync.Cond
	freeC   []int          // free cores per node
	freeM   []int          // free MB per node
	usedByQ map[string]int // cores in use per queue
	totalC  int
	nextID  int
	granted map[int]*Container
}

// New creates a resource manager.
func New(cfg Config) (*ResourceManager, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("yarn: need at least one node")
	}
	if len(cfg.Queues) == 0 {
		cfg.Queues = map[string]float64{"default": 1}
	}
	var sum float64
	for q, share := range cfg.Queues {
		if share <= 0 || share > 1 {
			return nil, fmt.Errorf("yarn: queue %q share %v out of (0,1]", q, share)
		}
		sum += share
	}
	if sum > 1.0001 {
		return nil, fmt.Errorf("yarn: queue shares sum to %v > 1", sum)
	}
	rm := &ResourceManager{
		cfg:     cfg,
		usedByQ: map[string]int{},
		granted: map[int]*Container{},
	}
	rm.cond = sync.NewCond(&rm.mu)
	for _, n := range cfg.Nodes {
		if n.Cores <= 0 || n.MemoryMB <= 0 {
			return nil, fmt.Errorf("yarn: node resources must be positive")
		}
		rm.freeC = append(rm.freeC, n.Cores)
		rm.freeM = append(rm.freeM, n.MemoryMB)
		rm.totalC += n.Cores
	}
	return rm, nil
}

// Submit registers an application under a queue.
func (rm *ResourceManager) Submit(name, queue string) (*App, error) {
	if _, ok := rm.cfg.Queues[queue]; !ok {
		return nil, fmt.Errorf("yarn: unknown queue %q", queue)
	}
	return &App{rm: rm, Name: name, Queue: queue}, nil
}

// queueHeadroom reports how many more cores the queue may take: its capacity
// share, elastically extended to whatever is idle cluster-wide.
func (rm *ResourceManager) queueHeadroom(queue string) int {
	share := rm.cfg.Queues[queue]
	guaranteed := int(share*float64(rm.totalC)+0.5) - rm.usedByQ[queue]
	idle := 0
	for _, c := range rm.freeC {
		idle += c
	}
	if guaranteed < 0 {
		guaranteed = 0
	}
	// Elasticity: a queue can use idle resources beyond its share, but other
	// queues' guaranteed shares are protected: headroom never exceeds idle.
	head := idle
	reservedForOthers := 0
	for q, s := range rm.cfg.Queues {
		if q == queue {
			continue
		}
		r := int(s*float64(rm.totalC)+0.5) - rm.usedByQ[q]
		if r > 0 {
			reservedForOthers += r
		}
	}
	head = idle - reservedForOthers
	if head < guaranteed {
		head = guaranteed
	}
	if head > idle {
		head = idle
	}
	return head
}

// Request asks for one container. preferNode >= 0 expresses data locality
// with Vertica segments; the scheduler falls back to any node with room.
// With wait=true the call blocks until resources free up; with wait=false it
// returns an error when the request cannot be satisfied immediately.
func (a *App) Request(cores, memMB, preferNode int, wait bool) (*Container, error) {
	if cores <= 0 || memMB <= 0 {
		return nil, fmt.Errorf("yarn: container demands must be positive")
	}
	// Injected resource-manager hiccups surface as denials.
	if err := faults.Check(faults.SiteYarnRequest); err != nil {
		mDenials(a.Queue).Inc()
		return nil, err
	}
	rm := a.rm
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for {
		if node := rm.findNode(cores, memMB, preferNode); node >= 0 && rm.queueHeadroom(a.Queue) >= cores {
			rm.freeC[node] -= cores
			rm.freeM[node] -= memMB
			rm.usedByQ[a.Queue] += cores
			rm.nextID++
			c := &Container{ID: rm.nextID, Node: node, Cores: cores, MemoryMB: memMB, app: a}
			rm.granted[c.ID] = c
			mGrants(a.Queue).Inc()
			gOutstanding.Set(int64(len(rm.granted)))
			if preferNode >= 0 {
				if node == preferNode {
					mLocality("hit").Inc()
				} else {
					mLocality("miss").Inc()
				}
			}
			return c, nil
		}
		if !wait {
			mDenials(a.Queue).Inc()
			return nil, fmt.Errorf("yarn: insufficient resources for %d cores / %d MB in queue %q", cores, memMB, a.Queue)
		}
		mWaits.Inc()
		rm.cond.Wait()
	}
}

// findNode picks a node with room, honoring the locality preference first.
func (rm *ResourceManager) findNode(cores, memMB, prefer int) int {
	if prefer >= 0 && prefer < len(rm.freeC) && rm.freeC[prefer] >= cores && rm.freeM[prefer] >= memMB {
		return prefer
	}
	best, bestFree := -1, -1
	for n := range rm.freeC {
		if rm.freeC[n] >= cores && rm.freeM[n] >= memMB && rm.freeC[n] > bestFree {
			best, bestFree = n, rm.freeC[n]
		}
	}
	return best
}

// Release returns a container's resources.
func (a *App) Release(c *Container) error {
	rm := a.rm
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if _, ok := rm.granted[c.ID]; !ok {
		return fmt.Errorf("yarn: container %d not granted (double release?)", c.ID)
	}
	delete(rm.granted, c.ID)
	rm.freeC[c.Node] += c.Cores
	rm.freeM[c.Node] += c.MemoryMB
	rm.usedByQ[c.app.Queue] -= c.Cores
	mReleases(c.app.Queue).Inc()
	gOutstanding.Set(int64(len(rm.granted)))
	rm.cond.Broadcast()
	return nil
}

// Usage is a point-in-time snapshot.
type Usage struct {
	FreeCores   []int
	FreeMemory  []int
	QueueCores  map[string]int
	Outstanding int
}

// Usage returns the current allocation state.
func (rm *ResourceManager) Usage() Usage {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	u := Usage{
		FreeCores:   append([]int(nil), rm.freeC...),
		FreeMemory:  append([]int(nil), rm.freeM...),
		QueueCores:  map[string]int{},
		Outstanding: len(rm.granted),
	}
	for q, c := range rm.usedByQ {
		u.QueueCores[q] = c
	}
	return u
}

// Queues lists configured queue names, sorted.
func (rm *ResourceManager) Queues() []string {
	out := make([]string, 0, len(rm.cfg.Queues))
	for q := range rm.cfg.Queues {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}
