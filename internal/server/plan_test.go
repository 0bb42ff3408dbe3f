package server

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/telemetry"
)

// planSession is a session over table pt (id, k, x = id/2), rows 0..n-1
// loaded in one batch.
func planSession(t *testing.T, n int) *core.Session {
	t.Helper()
	s, err := core.Start(core.Config{DBNodes: 2, DRWorkers: 1, InstancesPerWorker: 1, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.ExecContext(context.Background(), `CREATE TABLE pt (id INTEGER, k INTEGER, x FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	loadPT(t, s, 0, n)
	return s
}

// loadPT loads rows lo..hi-1 of pt: k = id, x = id/2.
func loadPT(t *testing.T, s *core.Session, lo, hi int) {
	t.Helper()
	var ids []int64
	var xs []float64
	for i := lo; i < hi; i++ {
		ids, xs = append(ids, int64(i)), append(xs, float64(i)/2)
	}
	b := &colstore.Batch{
		Schema: colstore.Schema{{Name: "id", Type: colstore.TypeInt64}, {Name: "k", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64}},
		Cols:   []*colstore.Vector{colstore.IntVector(ids), colstore.IntVector(append([]int64(nil), ids...)), colstore.FloatVector(xs)},
	}
	if err := s.Load("pt", b); err != nil {
		t.Fatal(err)
	}
}

// planPaths returns the plan paths /statements counts for sql.
func planPaths(srv *Server, sql string) map[string]int64 {
	for _, st := range srv.Statements().Snapshot() {
		if st.SQL == sql {
			return st.Plans
		}
	}
	return nil
}

// Many goroutines execute one cached generic plan at once, each with its
// own arguments: every execution fills in a copy of the plan's predicates,
// so each gets exactly its own row (run under -race in make race).
func TestCachedPlanConcurrentArguments(t *testing.T) {
	const rows = 512
	srv := New(planSession(t, rows), Config{MaxConcurrent: 4, MaxQueue: 256})
	const q = `SELECT id, x FROM pt WHERE id = ?`
	if err := srv.Prepare("one", q); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := int64((g*41 + i*7) % rows)
				res, err := srv.Execute(ctx, "one", id)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Rows(); len(got) != 1 || got[0][0] != id || got[0][1] != float64(id)/2 {
					errs <- fmt.Errorf("id %d: rows %v", id, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if paths := planPaths(srv, q); paths[PlanGeneric] != 16*40 {
		t.Fatalf("plan paths %v, want all %d executions generic", paths, 16*40)
	}
}

// A generic plan is rebuilt once a table it reads has doubled since the
// build, and then runs generic again.
func TestGenericPlanRebuiltAfterTableDoubles(t *testing.T) {
	s := planSession(t, 100)
	srv := New(s, Config{})
	const q = `SELECT count(*) FROM pt WHERE id < ?`
	if err := srv.Prepare("n", q); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	count := func(want int64) {
		t.Helper()
		res, err := srv.Execute(ctx, "n", int64(1000))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows()[0][0]; got != want {
			t.Fatalf("count %v, want %d", got, want)
		}
	}
	count(100)
	count(100)
	loadPT(t, s, 100, 200) // doubled: still within the plan's bounds
	count(200)
	if paths := planPaths(srv, q); paths[PlanGeneric] != 3 || paths[PlanRebuilt] != 0 {
		t.Fatalf("before the table passed double: plan paths %v", paths)
	}
	loadPT(t, s, 200, 201)
	count(201)
	count(201)
	if paths := planPaths(srv, q); paths[PlanGeneric] != 4 || paths[PlanRebuilt] != 1 {
		t.Fatalf("after the table passed double: plan paths %v, want 4 generic and 1 rebuilt", paths)
	}
}

// CREATE INDEX moves the catalog epoch, so the next execution of a
// template planned as a sequential scan finds no cached plan and plans an
// index scan.
func TestCreateIndexSwitchesCachedTemplateToIndexScan(t *testing.T) {
	s := planSession(t, 1000)
	srv := New(s, Config{})
	if err := srv.Prepare("p", `PROFILE SELECT x FROM pt WHERE k = ?`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scan := func() string {
		t.Helper()
		res, err := srv.Execute(ctx, "p", int64(321))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows(); len(got) != 1 || got[0][0] != 160.5 {
			t.Fatalf("rows %v", got)
		}
		for _, op := range res.Profile.Ops() {
			if op.Op == "scan" {
				return op.Detail
			}
		}
		t.Fatal("no scan operator in the profile")
		return ""
	}
	for i := 0; i < 2; i++ {
		if d := scan(); strings.Contains(d, "index(") {
			t.Fatalf("before CREATE INDEX: scan %q", d)
		}
	}
	if err := srv.Exec(ctx, `CREATE INDEX pt_k ON pt (k)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if d := scan(); !strings.Contains(d, "index(k) = 321") {
			t.Fatalf("after CREATE INDEX: scan %q, want an index scan", d)
		}
	}
}

// A template whose plan depends on its arguments — a range on ? over an
// indexed column — plans each execution, and a traced execution's
// server.exec span says which plan ran.
func TestExecSpanCarriesPlanPath(t *testing.T) {
	s := planSession(t, 300)
	srv := New(s, Config{})
	ctx := context.Background()
	if err := srv.Exec(ctx, `CREATE INDEX pt_k ON pt (k)`); err != nil {
		t.Fatal(err)
	}
	log := telemetry.Default().Spans()
	for _, c := range []struct{ sql, want string }{
		{`SELECT x FROM pt WHERE k = ?`, PlanGeneric},
		{`SELECT x FROM pt WHERE k < ?`, PlanCustom},
		{`SELECT x FROM pt WHERE id < ?`, PlanGeneric}, // no index on id: a range there decides nothing
	} {
		if err := srv.Prepare("s", c.sql); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			log.Reset()
			tctx, root := telemetry.Default().StartTrace(ctx, "test")
			if _, err := srv.Execute(tctx, "s", int64(7)); err != nil {
				t.Fatal(err)
			}
			root.End()
			got := ""
			for _, r := range log.Export() {
				if r.Name != "server.exec" {
					continue
				}
				for _, l := range r.Attrs {
					if l.Key == "plan" {
						got = l.Value
					}
				}
			}
			if got != c.want {
				t.Fatalf("%s: server.exec plan=%q, want %q", c.sql, got, c.want)
			}
		}
		if paths := planPaths(srv, c.sql); paths[c.want] != 2 {
			t.Fatalf("%s: /statements plan paths %v", c.sql, paths)
		}
	}
}

// No cached plan references a segment or a snapshot: after executions, a
// walk over everything reachable from the plan cache's templates meets no
// storage.
func TestCachedPlanHoldsNoStorage(t *testing.T) {
	s := planSession(t, 300)
	srv := New(s, Config{})
	ctx := context.Background()
	if err := srv.Exec(ctx, `CREATE INDEX pt_k ON pt (k)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT x FROM pt WHERE k = ?`,
		`SELECT k, count(*), sum(x) FROM pt WHERE id >= ? GROUP BY k ORDER BY k`,
		`SELECT a.x FROM pt a JOIN pt b ON a.id = b.k WHERE a.id < ?`,
	} {
		if err := srv.Prepare("q", q); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := srv.Execute(ctx, "q", int64(40)); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	probe := struct{ segs []*colstore.Segment }{[]*colstore.Segment{colstore.NewSegment(colstore.Schema{{Name: "a", Type: colstore.TypeInt64}}, 8)}}
	if storageIn(reflect.ValueOf(probe), map[uintptr]bool{}) == "" {
		t.Fatal("the walk does not find a segment")
	}
	srv.plans.mu.Lock()
	var templates []*Template
	for _, el := range srv.plans.items {
		templates = append(templates, el.Value.(*planEntry).t)
	}
	srv.plans.mu.Unlock()
	plans := 0
	for _, tm := range templates {
		tm.mu.Lock()
		for _, p := range tm.plans {
			plans++
			if path := storageIn(reflect.ValueOf(p), map[uintptr]bool{}); path != "" {
				t.Fatalf("cached plan of %q holds %s", tm.Sel.String(), path)
			}
		}
		tm.mu.Unlock()
	}
	if plans < 3 {
		t.Fatalf("%d cached plans, want 3", plans)
	}
}

// storageIn returns the type of the first segment, snapshot or statistics
// value reachable from v, "" when there is none.
func storageIn(v reflect.Value, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		if name := v.Type().Elem().String(); name == "colstore.Segment" || name == "colstore.ColumnStats" || strings.HasPrefix(name, "txn.") || strings.HasPrefix(name, "vertica.") {
			return name
		}
		return storageIn(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return storageIn(v.Elem(), seen)
	case reflect.Struct:
		if name := v.Type().String(); name == "colstore.ColumnStats" || strings.HasPrefix(name, "txn.") {
			return name
		}
		for i := 0; i < v.NumField(); i++ {
			if p := storageIn(v.Field(i), seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := storageIn(v.Index(i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := storageIn(it.Value(), seen); p != "" {
				return p
			}
		}
	}
	return ""
}
