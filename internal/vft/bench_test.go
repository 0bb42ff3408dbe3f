package vft

import (
	"context"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/dr"
	"verticadr/internal/vertica"
)

// benchTable loads an MB-scale three-column table (id INTEGER, a FLOAT,
// b FLOAT) for the transfer benchmarks.
func benchSetup(b *testing.B, rows int) (*vertica.DB, *dr.Cluster, *Hub) {
	b.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: 4, BlockRows: 2048, UDFInstancesPerNode: 2})
	if err != nil {
		b.Fatal(err)
	}
	c, err := dr.Start(dr.Config{Workers: 4, InstancesPerWorker: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Shutdown)
	hub := NewHub()
	if err := Register(db, hub); err != nil {
		b.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `CREATE TABLE bt (id INTEGER, a FLOAT, b FLOAT) SEGMENTED BY HASH(id)`); err != nil {
		b.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeFloat64},
	}
	batch := colstore.NewBatch(schema)
	for i := 0; i < rows; i++ {
		_ = batch.AppendRow(int64(i), float64(i)*0.5, float64(i)*2)
	}
	if err := db.Load("bt", batch); err != nil {
		b.Fatal(err)
	}
	return db, c, hub
}

// BenchmarkLoad is the headline transfer benchmark: export UDF scan+encode,
// in-process send with retransmission machinery, eager pooled decode, and
// frame assembly. ~1.2 MB (50k rows × 24 B) per iteration.
func BenchmarkLoad(b *testing.B) {
	const rows = 50_000
	db, c, hub := benchSetup(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, _, err := LoadContext(context.Background(), db, c, hub, "bt", []string{"id", "a", "b"}, PolicyLocality, 2048)
		if err != nil {
			b.Fatal(err)
		}
		if frame.Rows() != rows {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkLoadTCP is BenchmarkLoad across loopback sockets: ServeTCP's
// worker listeners and LoadTCPContext's sender. 600k rows over 8 export
// instances with a partition-size hint above an instance's share, so each
// instance sends one message of about 1.2 MB (mb/msg reports the mean) — the
// size class of the benchmark's own transfer messages, above any per-request
// buffer a connection keeps.
func BenchmarkLoadTCP(b *testing.B) {
	const rows = 600_000
	db, c, hub := benchSetup(b, rows)
	svc, err := ServeTCP(hub, c.NumWorkers())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	var st *Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var frame interface{ Rows() int }
		frame, st, err = LoadTCPContext(context.Background(), db, c, hub, svc, "bt", []string{"id", "a", "b"}, PolicyLocality, 1<<17)
		if err != nil {
			b.Fatal(err)
		}
		if frame.Rows() != rows {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(st.Bytes)/float64(st.Chunks)/(1<<20), "mb/msg")
}

func benchChunk(b *testing.B, rows int) (*colstore.Batch, []byte) {
	b.Helper()
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeFloat64},
	}
	batch := colstore.NewBatch(schema)
	for i := 0; i < rows; i++ {
		_ = batch.AppendRow(int64(i), float64(i)*0.5, float64(i)*2)
	}
	msg, err := EncodeChunk(batch)
	if err != nil {
		b.Fatal(err)
	}
	return batch, msg
}

// BenchmarkEncodeChunk measures the append-into encoder on a 2048-row
// chunk, into one reused buffer.
func BenchmarkEncodeChunk(b *testing.B) {
	batch, _ := benchChunk(b, 2048)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := EncodeChunkInto(buf[:0], batch)
		if err != nil {
			b.Fatal(err)
		}
		buf = msg
	}
}

// BenchmarkDecodeChunk measures decode into a pooled, reused batch.
func BenchmarkDecodeChunk(b *testing.B) {
	batch, msg := benchChunk(b, 2048)
	dst := colstore.NewBatch(batch.Schema)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		if err := DecodeChunkInto(dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}
