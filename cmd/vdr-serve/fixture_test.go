package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"verticadr/internal/core"
)

// scores runs both statements the server prints under "try:" and returns the
// predictions as bit patterns, requiring one per fixture row.
func scores(t *testing.T, s *core.Session) [][]uint64 {
	t.Helper()
	var out [][]uint64
	for _, sql := range []string{servePredictSQL, serveGlmPredictSQL} {
		res, err := s.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Batch.Len() != serveRows {
			t.Fatalf("%s: %d rows, want %d", sql, res.Batch.Len(), serveRows)
		}
		bits := make([]uint64, serveRows)
		for i, v := range res.Batch.Cols[0].Floats {
			bits[i] = math.Float64bits(v)
		}
		out = append(out, bits)
	}
	return out
}

// -demo used to build its own 4-node, 4-worker session whatever the flags
// said, while the listener advertised -nodes shards.
func TestDemoSessionFollowsNodesAndWorkers(t *testing.T) {
	s, err := openSession(context.Background(), "", true, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.DB.NumNodes(); got != 2 {
		t.Fatalf("database has %d nodes, want 2", got)
	}
	if got := s.DR.NumWorkers(); got != 3 {
		t.Fatalf("session has %d workers, want 3", got)
	}
	scores(t, s)
}

func TestDurableFixtureRecoveredAndScoresIdentically(t *testing.T) {
	dir := t.TempDir()
	s, err := openSession(context.Background(), dir, true, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := scores(t, s)
	s.Close()

	re, err := openSession(context.Background(), dir, false, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	created, err := seedFixture(context.Background(), re)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 0 {
		t.Fatalf("reopened fixture not recovered whole: re-created %v", created)
	}
	if got := scores(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered fixture scores differ from the run that seeded it")
	}
}

// A crash between the fixture's commits leaves a prefix of it behind; the
// next start must complete it rather than print statements that fail.
func TestHalfSeededFixtureCompleted(t *testing.T) {
	dir := t.TempDir()
	s, err := openSession(context.Background(), dir, false, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecContext(context.Background(), serveTableDDL); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re, err := openSession(context.Background(), dir, false, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	created, err := seedFixture(context.Background(), re)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{serveTable + " rows", "serve_glm", "serve_rf"}; !reflect.DeepEqual(created, want) {
		t.Fatalf("created %v, want %v", created, want)
	}
	scores(t, re)
}
