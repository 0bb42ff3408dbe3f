package vertica

import (
	"context"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/telemetry"
)

// ingestNode opens a durable node shaped like the ingest benchmark's in dir:
// 4 nodes, events_in with 300k rows loaded and checkpointed. rows makes
// events_in rows [lo, lo+n).
func ingestNode(b *testing.B, dir string) (db *DB, rows func(lo, n int) *colstore.Batch) {
	b.Helper()
	db, err := Open(Config{Nodes: 4, Durable: true, DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `CREATE TABLE events_in (id INTEGER, k INTEGER, dim_id INTEGER, grp INTEGER, region VARCHAR, x0 FLOAT, x1 FLOAT, x2 FLOAT, x3 FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		b.Fatal(err)
	}
	def, err := db.cat.Get("events_in")
	if err != nil {
		b.Fatal(err)
	}
	rows = func(lo, n int) *colstore.Batch {
		out := colstore.NewBatchCap(def.Schema, n)
		regions := []string{"emea", "amer", "apac", "latam", "anz"}
		for i := lo; i < lo+n; i++ {
			c := out.Cols
			c[0].Ints = append(c[0].Ints, int64(i))
			c[1].Ints = append(c[1].Ints, int64(i*7919%30000))
			c[2].Ints = append(c[2].Ints, int64(i%10000))
			c[3].Ints = append(c[3].Ints, int64(i%64))
			c[4].Strs = append(c[4].Strs, regions[i%len(regions)])
			for x := 5; x < 9; x++ {
				c[x].Floats = append(c[x].Floats, float64(i%1024)/float64(int(1)<<(x-3)))
			}
		}
		return out
	}
	if err := db.Load("events_in", rows(0, ingestPreload)); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return db, rows
}

const ingestPreload, copyRows = 300000, 2048

// BenchmarkRecover reopens a durable node shaped like the ingest benchmark's:
// 4 nodes, a checkpointed 300k-row events_in, then 700 COPYs of 2,048 rows
// in the log. An op is one Open; the bytes are the log it replays.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	db, rows := ingestNode(b, dir)
	for i := 0; i < 700; i++ {
		if err := db.Load("events_in", rows(ingestPreload+i*copyRows, copyRows)); err != nil {
			b.Fatal(err)
		}
	}
	db.Close()
	b.Run("open", func(b *testing.B) {
		var image, redo, wait time.Duration
		for i := 0; i < b.N; i++ {
			re, err := Open(Config{Nodes: 4, Durable: true, DataDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			info := re.RecoveryInfo()
			b.SetBytes(info.Replay.Bytes)
			image, redo, wait = image+info.ImageLoad, redo+info.Replay.Elapsed, wait+info.ApplyWait
			re.Close()
		}
		// The split RecoveryInfo reports: the image, the redo pass, and the
		// part of it the log reader waited on the node workers.
		for _, m := range []struct {
			d    time.Duration
			unit string
		}{{image, "image-ms/op"}, {redo, "redo-ms/op"}, {wait, "wait-ms/op"}} {
			b.ReportMetric(float64(m.d.Milliseconds())/float64(b.N), m.unit)
		}
	})
}

// BenchmarkDurableCopy loads into the same node: an op is one 2,048-row COPY
// (Load: split, record encode, WAL append, build while the record syncs,
// publish), one after another as the benchmark's client sends them. Beside
// ns/op it reports the mean wal_commit_seconds, the write and fsync a COPY
// waits on.
func BenchmarkDurableCopy(b *testing.B) {
	db, rows := ingestNode(b, b.TempDir())
	defer db.Close()
	batches := make([]*colstore.Batch, 16)
	for i := range batches {
		batches[i] = rows(ingestPreload+i*copyRows, copyRows)
	}
	wait := telemetry.Default().Histogram("wal_commit_seconds", nil)
	b.Run("copy", func(b *testing.B) {
		n, sum := wait.Count(), wait.Sum()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := db.Load("events_in", batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
		}
		if n = wait.Count() - n; n > 0 {
			b.ReportMetric((wait.Sum()-sum)/float64(n)*1e6, "commit-us/op")
		}
	})
}
