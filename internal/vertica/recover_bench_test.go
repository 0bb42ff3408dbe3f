package vertica

import (
	"context"
	"testing"
	"time"

	"verticadr/internal/colstore"
)

// BenchmarkRecover reopens a durable node shaped like the ingest benchmark's:
// 4 nodes, a checkpointed 300k-row events_in, then 700 COPYs of 2,048 rows
// in the log. An op is one Open; the bytes are the log it replays.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
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
	rows := func(lo, n int) *colstore.Batch {
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
	const preload, copies, copyRows = 300000, 700, 2048
	if err := db.Load("events_in", rows(0, preload)); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < copies; i++ {
		if err := db.Load("events_in", rows(preload+i*copyRows, copyRows)); err != nil {
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
