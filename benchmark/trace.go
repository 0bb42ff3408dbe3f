package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"verticadr"
	"verticadr/internal/telemetry"
)

// The traced pass records spans from the benchmark's own files, around the
// calls into each layer. Sampled requests are also wrapped in the program's
// public StartTrace, so the spans the program already records for a traced
// request (client.*, server.*, server.admit, server.exec, op:*, router.*)
// are exported beside the harness's own. No span is added inside the program.

// sampleEvery is the share of requests of a latency class that get a trace.
const sampleEvery = 40

// spanRec is one line of the span file.
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Request int64  `json:"request,omitempty"` // spans of one request share it
	Source  string `json:"source"`            // "harness" or "program"
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // on the telemetry wall clock (process start = 0)
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	mu      sync.Mutex
	spans   []spanRec
	nextID  int64
	nextReq int64
	// roots maps a program trace ID to the harness request span adopting it.
	roots map[string]int64
}

func newTracer() *tracer { return &tracer{roots: map[string]int64{}} }

// liveSpan is an open harness span. All methods accept nil, so untraced
// passes call them unconditionally and record nothing.
type liveSpan struct {
	t   *tracer
	idx int
	id  int64
	req int64
}

func now() int64 { return int64(telemetry.Default().Now()) }

func (t *tracer) start(name string, parent *liveSpan) *liveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	rec := spanRec{ID: t.nextID, Source: "harness", Name: name, StartNS: now()}
	ls := &liveSpan{t: t, id: rec.ID}
	if parent != nil {
		rec.Parent, rec.Request, ls.req = parent.id, parent.req, parent.req
	}
	t.spans = append(t.spans, rec)
	ls.idx = len(t.spans) - 1
	return ls
}

func (s *liveSpan) end() {
	if s == nil {
		return
	}
	end := now()
	s.t.mu.Lock()
	s.t.spans[s.idx].EndNS = end
	s.t.mu.Unlock()
}

// request opens a request span for the i-th operation of a class when it
// falls on the sampling grid, and wraps the operation in a program trace.
// The returned context carries the trace; done closes both.
func (t *tracer) request(ctx context.Context, class string, parent *liveSpan, i int) (context.Context, func()) {
	if t == nil || i%sampleEvery != 0 {
		return ctx, func() {}
	}
	sp := t.start("request:"+class, parent)
	t.mu.Lock()
	t.nextReq++
	sp.req = t.nextReq
	t.spans[sp.idx].Request = sp.req
	t.mu.Unlock()
	tctx, root := verticadr.StartTrace(ctx, "bench."+class)
	t.mu.Lock()
	t.roots[telemetry.FormatID(root.TraceID())] = sp.id
	t.mu.Unlock()
	return tctx, func() {
		root.End()
		sp.end()
	}
}

// adoptProgramSpans copies the program's spans of every sampled trace into
// the file, re-numbered into the harness's ID space and hung under the
// request span that started the trace. Called between rounds; the program's
// bounded span ring is then cleared so the next round cannot overflow it.
func (t *tracer) adoptProgramSpans() {
	if t == nil {
		return
	}
	traces := verticadr.RecentTraces(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range traces {
		reqSpan, ok := t.roots[tr.Trace]
		if !ok {
			continue
		}
		req := int64(0)
		for _, s := range t.spans {
			if s.ID == reqSpan {
				req = s.Request
				break
			}
		}
		ids, ends := map[int64]int64{}, map[int64]int64{}
		for _, s := range tr.Spans {
			t.nextID++
			ids[s.ID] = t.nextID
			ends[s.ID] = int64(s.End)
		}
		for _, s := range tr.Spans {
			parent, ok := ids[s.Parent]
			if !ok {
				parent = reqSpan // trace root, or a parent the ring dropped
			}
			end := int64(s.End)
			if !s.Ended {
				// The program never closed this span (the peer-side
				// op:filter of an aggregate does not); it cannot outlive
				// its parent, so that is where it is cut.
				end = int64(s.Start)
				if pe, ok := ends[s.Parent]; ok {
					end = max(end, pe)
				}
			}
			t.spans = append(t.spans, spanRec{ID: ids[s.ID], Parent: parent, Request: req,
				Source: "program", Name: s.Name, StartNS: int64(s.Start), EndNS: end})
		}
		delete(t.roots, tr.Trace)
	}
	telemetry.Default().Spans().Reset()
}

// layerOf maps a span name to the module whose time it is.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "request:"), strings.HasPrefix(name, "bench."):
		return "harness"
	case strings.HasPrefix(name, "client."):
		return "client"
	case strings.HasPrefix(name, "server."):
		return "server"
	case strings.HasPrefix(name, "router."), strings.HasPrefix(name, "cl."):
		return "cluster"
	case strings.HasPrefix(name, "op:"):
		return "sqlexec"
	}
	if i := strings.IndexAny(name, ".:"); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes folds the spans of sampled requests of one class into per-layer
// self time: a span's duration minus the part of it its children cover. It
// returns the layers' total self time and the requests' total time, whose
// ratio is the share of a traced request the ladder accounts for.
func (t *tracer) selfTimes(class string) (byLayer map[string]time.Duration, self, total time.Duration) {
	byLayer = map[string]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]spanRec{}
	inClass := map[int64]bool{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
		if s.Name == "request:"+class {
			inClass[s.Request] = true
			total += time.Duration(s.EndNS - s.StartNS)
		}
	}
	for _, s := range t.spans {
		if s.Request == 0 || !inClass[s.Request] {
			continue
		}
		// Children may overlap (parallel shard calls): cover = union length.
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, edge int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		d := time.Duration(s.EndNS - s.StartNS - covered)
		byLayer[layerOf(s.Name)] += d
		self += d
	}
	return byLayer, self, total
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
