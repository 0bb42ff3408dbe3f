// Package simnet is a discrete-event cluster simulator with virtual time.
// The paper's evaluation runs on a 24-node cluster with 10 Gbps networking
// and 50–400 GB datasets; this environment has one core and no cluster, so
// every figure whose axis is node count, core count or 100s-of-GB data size
// is regenerated by simulating the same pipelines against calibrated device
// models: disks and NICs as FIFO servers with byte rates, CPUs as multi-slot
// servers with per-row software costs. The experiment models live in
// internal/bench; this package provides the simulation substrate —
// processes (goroutines coordinated under a virtual clock), resources
// (FIFO multi-server queues) and fork/join gates.
package simnet

import (
	"container/heap"
	"fmt"
	"sync"
)

// Sim is one simulation run: a virtual clock plus the scheduler state.
type Sim struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    float64
	seq    int64
	timers timerHeap
	active int // processes currently executing Go code
	procs  int // processes alive
}

// New creates an empty simulation at time zero.
func New() *Sim {
	s := &Sim{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Now returns the current virtual time in seconds. Instrumentation (e.g. a
// telemetry.Clock built over a simulation) reads this to report virtual
// rather than wall durations.
func (s *Sim) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Proc is the handle a simulated process uses to interact with virtual time.
type Proc struct {
	sim    *Sim
	name   string
	resume chan struct{}
}

// Name returns the process name (diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time in seconds.
func (p *Proc) Now() float64 {
	p.sim.mu.Lock()
	defer p.sim.mu.Unlock()
	return p.sim.now
}

type timer struct {
	at   float64
	seq  int64
	proc *Proc
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Go registers a process. Processes may be added before Run or spawned by
// other processes during the run.
func (s *Sim) Go(name string, fn func(p *Proc)) {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.mu.Lock()
	s.procs++
	s.active++
	s.mu.Unlock()
	go func() {
		// Wait for the scheduler's first wake (Run hands control over).
		<-p.resume
		fn(p)
		s.mu.Lock()
		s.procs--
		s.active--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	// Schedule an immediate start.
	s.mu.Lock()
	s.seq++
	heap.Push(&s.timers, timer{at: s.now, seq: s.seq, proc: p})
	s.active-- // the new goroutine starts blocked on resume
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Sleep suspends the process for d virtual seconds (d <= 0 yields).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.mu.Lock()
	s.seq++
	heap.Push(&s.timers, timer{at: s.now + d, seq: s.seq, proc: p})
	s.active--
	s.cond.Broadcast()
	s.mu.Unlock()
	<-p.resume
}

// block suspends the process without scheduling a wake; a resource or gate
// will wake it explicitly.
func (p *Proc) block() {
	s := p.sim
	s.mu.Lock()
	s.active--
	s.cond.Broadcast()
	s.mu.Unlock()
	<-p.resume
}

// wake marks a blocked process runnable now. Caller holds s.mu.
func (s *Sim) wakeLocked(p *Proc) {
	s.seq++
	heap.Push(&s.timers, timer{at: s.now, seq: s.seq, proc: p})
}

// Run executes until every process has finished, returning the final clock.
// It panics on deadlock (processes alive but nothing scheduled), which
// indicates a modelling bug.
func (s *Sim) Run() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.active > 0 {
			s.cond.Wait()
		}
		if s.timers.Len() == 0 {
			if s.procs > 0 {
				panic(fmt.Sprintf("simnet: deadlock with %d processes alive", s.procs))
			}
			return s.now
		}
		t := heap.Pop(&s.timers).(timer)
		if t.at < s.now {
			t.at = s.now
		}
		s.now = t.at
		s.active++
		t.proc.resume <- struct{}{}
	}
}

// Resource is a FIFO multi-server queue: `slots` parallel servers, each
// processing work at `rate` units per virtual second. A disk is one slot at
// MB/s; a NIC one slot at bytes/s per direction; a CPU `cores` slots at
// cycles-or-rows/s.
type Resource struct {
	sim   *Sim
	name  string
	slots int
	rate  float64
	free  int
	q     []*Proc
}

// NewResource creates a resource with the given parallel slots and per-slot
// rate (units/second).
func (s *Sim) NewResource(name string, slots int, rate float64) *Resource {
	if slots <= 0 || rate <= 0 {
		panic(fmt.Sprintf("simnet: resource %q needs positive slots and rate", name))
	}
	return &Resource{sim: s, name: name, slots: slots, rate: rate, free: slots}
}

// Use acquires one server slot (FIFO), holds it for units/rate seconds, and
// releases it. This is the fundamental "do work on a device" operation.
func (r *Resource) Use(p *Proc, units float64) {
	if units <= 0 {
		return
	}
	s := r.sim
	s.mu.Lock()
	if r.free > 0 {
		r.free--
	} else {
		r.q = append(r.q, p)
		s.mu.Unlock()
		p.block()
		s.mu.Lock()
		// Slot was handed to us by the releaser; free already decremented.
	}
	s.mu.Unlock()

	p.Sleep(units / r.rate)

	s.mu.Lock()
	if len(r.q) > 0 {
		next := r.q[0]
		r.q = r.q[1:]
		// Hand the slot directly to the next waiter (free stays consumed).
		s.wakeLocked(next)
	} else {
		r.free++
	}
	s.mu.Unlock()
}

// Gate is a countdown latch for fork/join.
type Gate struct {
	sim     *Sim
	n       int
	waiters []*Proc
}

// NewGate creates a gate that opens after n Done calls.
func (s *Sim) NewGate(n int) *Gate {
	return &Gate{sim: s, n: n}
}

// Done decrements the latch; at zero all waiters wake.
func (g *Gate) Done() {
	s := g.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	g.n--
	if g.n <= 0 {
		for _, w := range g.waiters {
			s.wakeLocked(w)
		}
		g.waiters = nil
	}
}

// Wait blocks the process until the gate opens.
func (g *Gate) Wait(p *Proc) {
	s := g.sim
	s.mu.Lock()
	if g.n <= 0 {
		s.mu.Unlock()
		return
	}
	g.waiters = append(g.waiters, p)
	s.mu.Unlock()
	p.block()
}
