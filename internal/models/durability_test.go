package models

import (
	"context"
	"errors"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/faults"
	"verticadr/internal/vertica"
)

func durableCluster(t *testing.T, dir string) (*vertica.DB, *Manager) {
	t.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: 2, Durable: true, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

func km(center float64) *algos.KmeansModel {
	return &algos.KmeansModel{K: 1, Centers: [][]float64{{center, center}}, Converged: true}
}

// TestRedeployDurableAcrossRestart is the regression test for the torn-write
// window: before the WAL, Redeploy wrote the blob directly into the in-memory
// DFS namespace, so a crash after Redeploy acknowledged would serve the OLD
// model after restart. Now the blob write is redo-logged and fsynced before
// it is acknowledged, so the version bump survives a crash with no checkpoint
// having run.
func TestRedeployDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db, m := durableCluster(t, dir)
	if err := m.Deploy(context.Background(), "demo", "alice", "v1", km(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Redeploy(context.Background(), "demo", "alice", km(2)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, m2 := durableCluster(t, dir)
	defer db2.Close()
	got, kind, err := m2.Load("demo", -1)
	if err != nil {
		t.Fatal(err)
	}
	if kind != TypeKmeans {
		t.Fatalf("kind = %q", kind)
	}
	if c := got.(*algos.KmeansModel).Centers[0][0]; c != 2 {
		t.Fatalf("recovered model serves center %v, want the redeployed 2", c)
	}
	// Adoption: the surviving metadata row still enforces ownership.
	if err := m2.Redeploy(context.Background(), "demo", "mallory", km(3)); err == nil {
		t.Fatal("recovered ACL did not block non-owner redeploy")
	}
	if err := m2.Redeploy(context.Background(), "demo", "alice", km(3)); err != nil {
		t.Fatal(err)
	}
}

// TestRedeployCrashKeepsOldVersion: a redeploy that dies at the WAL boundary
// must fail without acknowledging, and after restart the previous version
// still serves.
func TestRedeployCrashKeepsOldVersion(t *testing.T) {
	dir := t.TempDir()
	db, m := durableCluster(t, dir)
	if err := m.Deploy(context.Background(), "demo", "alice", "v1", km(1)); err != nil {
		t.Fatal(err)
	}
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: faults.SiteWALAppend, Kind: faults.Crash, EveryN: 1})
	faults.Install(in)
	err := m.Redeploy(context.Background(), "demo", "alice", km(2))
	faults.Install(nil)
	if err == nil || !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("redeploy past a crashed WAL append: %v", err)
	}
	db.Close()

	db2, m2 := durableCluster(t, dir)
	defer db2.Close()
	got, _, err := m2.Load("demo", -1)
	if err != nil {
		t.Fatal(err)
	}
	if c := got.(*algos.KmeansModel).Centers[0][0]; c != 1 {
		t.Fatalf("unacknowledged redeploy leaked: center %v", c)
	}
}

// TestDeployedModelSurvivesCheckpoint: the blob rides the checkpoint image
// and the log after it is truncated.
func TestDeployedModelSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, m := durableCluster(t, dir)
	if err := m.Deploy(context.Background(), "demo", "alice", "v1", km(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Redeploy(context.Background(), "demo", "alice", km(5)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, m2 := durableCluster(t, dir)
	defer db2.Close()
	got, _, err := m2.Load("demo", -1)
	if err != nil {
		t.Fatal(err)
	}
	if c := got.(*algos.KmeansModel).Centers[0][0]; c != 5 {
		t.Fatalf("post-checkpoint redeploy lost: center %v", c)
	}
	list, err := m2.List(context.Background())
	if err != nil || len(list) != 1 || list[0][0].(string) != "demo" {
		t.Fatalf("metadata not recovered: %v %v", list, err)
	}
}
