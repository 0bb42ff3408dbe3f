package models

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// dataIndependentErrors are the statements whose failure used to need a
// qualifying row: each names its table state by the WHERE it runs under.
var dataIndependentErrors = []struct{ call, want string }{
	{`GlmPredict(a, b USING PARAMETERS model='nosuch')`, "nosuch"},
	{`GlmPredict(a, b USING PARAMETERS model='reg', user='mallory')`, "READ"},
	{`GlmPredict(a USING PARAMETERS model='reg')`, "expects 2 features"},
}

// A prediction statement fails the same way over an empty table, under a
// WHERE that keeps nothing, and over rows that qualify — and a sound
// statement answers with no rows where there are none.
func TestPredictErrorsDoNotDependOnData(t *testing.T) {
	db, mgr := setup(t, 3)
	ctx := context.Background()
	loadPointsTable(t, db, 600)
	if err := db.ExecContext(ctx, `CREATE TABLE none (a FLOAT, b FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Deploy(ctx, "reg", "alice", "", glmModel()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Restrict("reg", "alice"); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{
		"none",                  // empty table
		"pts WHERE a > 1000000", // zone maps and tail filter reject everything
		"pts WHERE a + b > 1e9", // residual rejects everything
		"pts",                   // populated
		"pts WHERE a < 5",       // partly populated
	} {
		for _, over := range []string{"PARTITION BEST", "PARTITION BY a"} {
			var msgs []string
			for _, c := range dataIndependentErrors {
				q := "SELECT " + c.call + " OVER (" + over + ") FROM " + from
				_, err := db.QueryContext(ctx, q)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s: err = %v, want one naming %q", q, err, c.want)
				}
				msgs = append(msgs, err.Error())
			}
			// Identical whatever the table holds: compare with the populated run.
			for i, c := range dataIndependentErrors {
				_, err := db.QueryContext(ctx, "SELECT "+c.call+" OVER ("+over+") FROM pts")
				if err == nil || err.Error() != msgs[i] {
					t.Fatalf("%s over %q failed with %q, over the populated table with %v", c.call, from, msgs[i], err)
				}
			}
			q := "SELECT GlmPredict(a, b USING PARAMETERS model='reg', user='alice') OVER (" + over + ") FROM " + from
			res, err := db.QueryContext(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want := map[string]int{"none": 0, "pts WHERE a > 1000000": 0, "pts WHERE a + b > 1e9": 0, "pts": 600, "pts WHERE a < 5": 300}[from]
			if res.Len() != want {
				t.Fatalf("%s: %d rows, want %d", q, res.Len(), want)
			}
		}
	}
}

// One PREDICT allocates a small multiple of what it returns: its input is
// streamed block by block, never gathered, its PLAIN FLOAT blocks read in
// place, and every instance keeps each block's scores as one exact-size
// copy, appended once into the result. Materializing the scanned features
// again (8 input columns a row against 1 output column) cost thirty-three
// times the output; growing each instance's output by doubling and then
// copying it into the result cost 8.7 times; decoding every block into a
// buffer of its own, 6.7 times.
func TestPredictAllocationStaysNearOutput(t *testing.T) {
	const rows = 120_000
	db := predict8DB(t, rows)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := db.QueryContext(context.Background(), predict8SQL)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.Len() != rows {
			t.Fatalf("%d rows, want %d", res.Len(), rows)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm the model cache and the pools
	got, output := run(), uint64(rows*8)
	if got > 3*output {
		t.Fatalf("one PREDICT over %d rows allocated %d KB, more than 3x its %d KB of output: is the input or the output copied again?",
			rows, got>>10, output>>10)
	}
	t.Logf("one PREDICT over %d rows: %d KB allocated for %d KB of output (%.1fx)", rows, got>>10, output>>10, float64(got)/float64(output))
}
