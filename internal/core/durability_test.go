package core

import (
	"context"
	"testing"

	"verticadr/internal/colstore"
)

// TestDurableSessionRecoversAcrossRestart drives the whole stack the way
// vdr-serve -data does: a durable session ingests through Session.Load and
// SQL INSERT, checkpoints, ingests more, closes; a second session over the
// same directory must serve the identical data and a working model manager.
func TestDurableSessionRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DBNodes: 2, DRWorkers: 2, Durable: true, DataDir: dir}

	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecContext(context.Background(), `CREATE TABLE pts (id INTEGER, x FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
	}
	b := colstore.NewBatch(schema)
	for i := 0; i < 100; i++ {
		if err := b.AppendRow(int64(i), float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Load("pts", b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecContext(context.Background(), `INSERT INTO pts VALUES (100, 50.5)`); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info := s2.DB.RecoveryInfo(); info == nil || info.CheckpointLSN == 0 {
		t.Fatalf("expected recovery from a checkpoint, got %+v", info)
	}
	res, err := s2.QueryContext(context.Background(), `SELECT count(*) AS n, sum(x) AS s FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows()[0]
	if row[0].(int64) != 101 {
		t.Fatalf("recovered %v rows, want 101", row[0])
	}
	// sum(0.5*i, i<100) = 2475; plus the post-checkpoint 50.5.
	if got := row[1].(float64); got != 2525.5 {
		t.Fatalf("recovered sum %v, want 2525.5", got)
	}
	// The recovered session keeps full write/read service.
	if err := s2.ExecContext(context.Background(), `INSERT INTO pts VALUES (101, 1.0)`); err != nil {
		t.Fatal(err)
	}
}
