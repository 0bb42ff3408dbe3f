package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// One traced client query through the full wire stack must yield a single,
// well-formed trace tree: the caller's root span, the client request span,
// the server's remote continuation, admission and execution spans, and the
// engine's per-operator spans — all under one trace ID, each parented
// correctly.
func TestWireTraceSingleTree(t *testing.T) {
	s := testSession(t, 128, 1)
	srv := New(s, Config{})
	tcp, err := Listen(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	cli, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	log := telemetry.Default().Spans()
	log.Reset()
	ctx, root := telemetry.Default().StartTrace(context.Background(), "app.request")
	if _, err := cli.Query(ctx, `SELECT count(*) FROM px`); err != nil {
		t.Fatal(err)
	}
	root.End()

	recs := log.Export()
	byName := map[string]telemetry.SpanRecord{}
	byID := map[int64]telemetry.SpanRecord{}
	traces := map[string]bool{}
	for _, r := range recs {
		byName[r.Name] = r
		byID[r.ID] = r
		traces[r.Trace] = true
	}
	if len(traces) != 1 {
		t.Fatalf("one query produced %d traces, want 1:\n%s", len(traces), log.String())
	}
	wantParent := map[string]string{
		"client.query": "app.request",
		"server.query": "client.query",
		"server.admit": "server.query",
		"server.exec":  "server.query",
		"op:scan":      "server.exec",
	}
	for child, parent := range wantParent {
		c, ok := byName[child]
		if !ok {
			t.Fatalf("trace missing span %q:\n%s", child, log.String())
		}
		p, ok := byID[c.Parent]
		if !ok || p.Name != parent {
			t.Fatalf("span %q parent = %q, want %q:\n%s", child, p.Name, parent, log.String())
		}
		if !c.Ended {
			t.Fatalf("span %q never ended", child)
		}
	}
	// The plan-cache attr lands on the server-side request span.
	var attrs []telemetry.Label
	for _, r := range recs {
		if r.Name == "server.query" {
			attrs = r.Attrs
		}
	}
	found := false
	for _, a := range attrs {
		if a.Key == "plan_cache" {
			found = true
		}
	}
	if !found {
		t.Fatalf("server.query span lacks plan_cache attr: %v", attrs)
	}

	// Where the frame is built and taken apart, on both ends: the request
	// encoded under client.query, the result chunk and response head encoded
	// under server.query, the response decoded into rows under client.query —
	// each saying how many bytes, and the result sides how many rows.
	wire := map[string]map[string]string{} // "parent>name" -> attrs
	for _, r := range recs {
		if r.Name != "wire.encode" && r.Name != "wire.decode" {
			continue
		}
		if !r.Ended {
			t.Fatalf("span %q never ended", r.Name)
		}
		attrs := map[string]string{}
		for _, a := range r.Attrs {
			attrs[a.Key] = a.Value
		}
		wire[byID[r.Parent].Name+">"+r.Name] = attrs
	}
	for key, wantRows := range map[string]string{
		"client.query>wire.encode": "", "server.query>wire.encode": "1", "client.query>wire.decode": "1",
	} {
		attrs, ok := wire[key]
		if !ok || attrs["bytes"] == "" || attrs["bytes"] == "0" || attrs["rows"] != wantRows {
			t.Fatalf("span %s: present %v, attrs %v, want bytes and rows=%q:\n%s", key, ok, attrs, wantRows, log.String())
		}
	}
	if len(wire) != 3 {
		t.Fatalf("wire spans of one query: %v", wire)
	}
	if wire["server.query>wire.encode"]["bytes"] != wire["client.query>wire.decode"]["bytes"] {
		t.Fatalf("the server encoded %s bytes, the client decoded %s", wire["server.query>wire.encode"]["bytes"], wire["client.query>wire.decode"]["bytes"])
	}

	// An untraced query must not panic and must not start a new trace.
	log.Reset()
	if _, err := cli.Query(context.Background(), `SELECT count(*) FROM px`); err != nil {
		t.Fatal(err)
	}
	if got := len(log.Export()); got != 0 {
		t.Fatalf("untraced query recorded %d spans, want 0", got)
	}
	in, out := telemetry.Default().Counter("server_wire_bytes_total", telemetry.L("dir", "in")), telemetry.Default().Counter("server_wire_bytes_total", telemetry.L("dir", "out"))
	inBefore, outBefore := in.Value(), out.Value()
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if in.Value() <= inBefore || out.Value() <= outBefore {
		t.Fatalf("a ping moved server_wire_bytes_total by in %d, out %d", in.Value()-inBefore, out.Value()-outBefore)
	}
}

// PROFILE output must survive the wire: per-operator rows, times and the
// structured scan accounting come back attached to the client result.
func TestProfileOverWire(t *testing.T) {
	s := testSession(t, 200, 1)
	srv := New(s, Config{})
	tcp, err := Listen(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	cli, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rows, err := cli.Query(context.Background(), `PROFILE SELECT count(*) FROM px`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Profile == nil {
		t.Fatal("PROFILE query returned no profile over the wire")
	}
	ops := map[string]bool{}
	var scanRows int64
	for _, op := range rows.Profile.Ops {
		ops[op.Op] = true
		if op.Op == "scan" {
			scanRows = op.Rows
			if op.Blocks <= 0 {
				t.Fatalf("scan profile has no block accounting: %+v", op)
			}
			if op.Parallel <= 0 {
				t.Fatalf("scan profile has no parallel degree: %+v", op)
			}
		}
	}
	if !ops["scan"] || !ops["aggregate"] {
		t.Fatalf("profile ops = %v, want scan and aggregate", rows.Profile.Ops)
	}
	if scanRows != 200 {
		t.Fatalf("scan rows = %d, want 200", scanRows)
	}

	// A plain query ships no profile.
	rows, err = cli.Query(context.Background(), `SELECT count(*) FROM px`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Profile != nil {
		t.Fatal("unprofiled query carried a profile")
	}
}

// Statement statistics: calls accumulate per normalized fingerprint,
// whitespace/semicolon variants collapse to one row, failures bucket by verr
// code, and quantile estimates are populated and ordered.
func TestStatementStats(t *testing.T) {
	s := testSession(t, 64, 1)
	srv := New(s, Config{})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := srv.Query(ctx, `SELECT count(*) FROM px`); err != nil {
			t.Fatal(err)
		}
	}
	// Same statement, different trailing decoration: one fingerprint.
	if _, err := srv.Query(ctx, "  SELECT count(*) FROM px ;\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(ctx, `SELECT sum(x) FROM px`); err != nil {
		t.Fatal(err)
	}
	// A canceled execution is recorded with its error code.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := srv.Query(canceled, `SELECT count(*) FROM px`); !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("err = %v, want verr.ErrCanceled", err)
	}

	snaps := srv.Statements().Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d statement rows, want 2: %+v", len(snaps), snaps)
	}
	var count StmtSnapshot
	ok := false
	for _, sn := range snaps {
		if sn.SQL == `SELECT count(*) FROM px` {
			count, ok = sn, true
		}
	}
	if !ok {
		t.Fatalf("no row for normalized count(*) statement: %+v", snaps)
	}
	if count.Calls != 7 {
		t.Fatalf("calls = %d, want 7 (5 + whitespace variant + canceled)", count.Calls)
	}
	if count.Errors != 1 || count.ErrCodes[verr.CodeCanceled] != 1 {
		t.Fatalf("errors = %d codes = %v, want 1 canceled", count.Errors, count.ErrCodes)
	}
	if count.TotalSecs <= 0 || count.MeanSecs <= 0 {
		t.Fatalf("total/mean not positive: %+v", count)
	}
	if count.P50Secs > count.P95Secs || count.P95Secs > count.P99Secs {
		t.Fatalf("quantiles not monotone: p50=%g p95=%g p99=%g", count.P50Secs, count.P95Secs, count.P99Secs)
	}
}

// Retention is bounded: beyond the cap the least-recently-executed
// fingerprint is evicted (and counted), never the hot ones.
func TestStmtStatsBoundedEviction(t *testing.T) {
	st := newStmtStats(3)
	for i := 0; i < 6; i++ {
		st.Record(fmt.Sprintf("q%d", i), time.Millisecond, nil)
	}
	// q0..q2 evicted in turn as q3..q5 arrived.
	if st.Len() != 3 {
		t.Fatalf("len = %d, want 3", st.Len())
	}
	if st.Evicted() != 3 {
		t.Fatalf("evicted = %d, want 3", st.Evicted())
	}
	kept := map[string]bool{}
	for _, sn := range st.Snapshot() {
		kept[sn.SQL] = true
	}
	for _, want := range []string{"q3", "q4", "q5"} {
		if !kept[want] {
			t.Fatalf("recent statement %s evicted; kept %v", want, kept)
		}
	}
	// Re-executing an old resident refreshes it: q3 survives the next insert.
	st.Record("q3", time.Millisecond, nil)
	st.Record("q6", time.Millisecond, nil)
	kept = map[string]bool{}
	for _, sn := range st.Snapshot() {
		kept[sn.SQL] = true
	}
	if !kept["q3"] || kept["q4"] {
		t.Fatalf("LRU order wrong after refresh; kept %v", kept)
	}
}

// The admin surface end to end: /metrics parses as Prometheus text and
// carries the serving series, /statements and /traces/recent return valid
// JSON, /healthz flips to 503 once the server stops admitting.
func TestAdminEndpoints(t *testing.T) {
	s := testSession(t, 64, 1)
	srv := New(s, Config{})
	if _, err := srv.Query(context.Background(), `SELECT count(*) FROM px`); err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(AdminHandler(srv))
	defer admin.Close()

	body := adminGet(t, admin.URL+"/metrics", http.StatusOK)
	samples, err := telemetry.ParsePromText(body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v\n%s", err, body)
	}
	wantSeries := map[string]bool{"server_queries_total": false, "server_query_seconds_count": false}
	for _, sm := range samples {
		if _, ok := wantSeries[sm.Name]; ok {
			wantSeries[sm.Name] = true
		}
	}
	for name, seen := range wantSeries {
		if !seen {
			t.Fatalf("/metrics missing %s:\n%s", name, body)
		}
	}

	var stmts []StmtSnapshot
	if err := json.Unmarshal([]byte(adminGet(t, admin.URL+"/statements", http.StatusOK)), &stmts); err != nil {
		t.Fatalf("/statements JSON invalid: %v", err)
	}
	if len(stmts) == 0 || stmts[0].Calls == 0 {
		t.Fatalf("/statements empty after a query: %+v", stmts)
	}

	// Produce a trace, then read it back through the endpoint.
	telemetry.Default().Spans().Reset()
	ctx, root := telemetry.Default().StartTrace(context.Background(), "admin.test")
	if _, err := srv.Query(ctx, `SELECT count(*) FROM px`); err != nil {
		t.Fatal(err)
	}
	root.End()
	var traces []telemetry.TraceRecord
	if err := json.Unmarshal([]byte(adminGet(t, admin.URL+"/traces/recent?n=4", http.StatusOK)), &traces); err != nil {
		t.Fatalf("/traces/recent JSON invalid: %v", err)
	}
	if len(traces) != 1 || len(traces[0].Spans) < 3 {
		t.Fatalf("traces = %+v, want 1 trace with >= 3 spans", traces)
	}

	var h Health
	if err := json.Unmarshal([]byte(adminGet(t, admin.URL+"/healthz", http.StatusOK)), &h); err != nil {
		t.Fatalf("/healthz JSON invalid: %v", err)
	}
	if h.Saturated {
		t.Fatalf("idle server reports saturated: %+v", h)
	}
	srv.Close()
	if err := json.Unmarshal([]byte(adminGet(t, admin.URL+"/healthz", http.StatusServiceUnavailable)), &h); err != nil {
		t.Fatalf("/healthz JSON invalid after close: %v", err)
	}
	if !h.Saturated || !h.Closed {
		t.Fatalf("closed server healthz = %+v, want saturated+closed", h)
	}
}

func adminGet(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Graceful drain: Shutdown lets the in-flight request finish and deliver its
// response, refuses to return while it runs, and leaves the port closed
// afterwards.
func TestShutdownDrainsInflight(t *testing.T) {
	s := testSession(t, 128, 1)
	srv := New(s, Config{MaxConcurrent: 1, QueueWait: 10 * time.Second})
	tcp, err := Listen(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	// Hold the only execution slot so the wire query is provably in flight
	// (queued inside the server) when Shutdown begins.
	release, err := srv.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	type qres struct {
		rows *Rows
		err  error
	}
	got := make(chan qres, 1)
	go func() {
		r, err := cli.Query(context.Background(), `SELECT count(*) FROM px`)
		got <- qres{r, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wire query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- tcp.Shutdown(30 * time.Second) }()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a request in flight")
	case <-time.After(50 * time.Millisecond):
	}
	release() // let the queued query run to completion
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("in-flight query failed during drain: %v", r.err)
		}
		if v := r.rows.Rows[0][0].(float64); v != 128 {
			t.Fatalf("drained query count = %v, want 128", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query never completed during drain")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after the drain completed")
	}

	// The drained connection is closed and the port no longer accepts.
	if _, err := cli.Query(context.Background(), `SELECT count(*) FROM px`); err == nil {
		t.Fatal("query succeeded on a drained connection")
	}
	if c2, err := DialTimeout(tcp.Addr(), 0); err == nil {
		defer c2.Close()
		if err := c2.Ping(context.Background()); err == nil {
			t.Fatal("new connection served after shutdown")
		}
	}
}

// Idle connections do not hold up a drain: with no request in flight,
// Shutdown returns promptly even though a client is connected.
func TestShutdownClosesIdleConns(t *testing.T) {
	s := testSession(t, 16, 1)
	srv := New(s, Config{})
	tcp, err := Listen(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialTimeout(tcp.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tcp.Shutdown(30 * time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown blocked on an idle connection")
	}
	if err := cli.Ping(context.Background()); err == nil {
		t.Fatal("idle connection survived shutdown")
	}
	if err := tcp.Close(); err != nil { // Close after Shutdown is a no-op
		t.Fatalf("Close after Shutdown: %v", err)
	}
}
