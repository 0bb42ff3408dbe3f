package vertica

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/wal"
)

// goldenLoads are the two COPY batches behind testdata/parent_wal: 40 rows
// over all three nodes (runs, a small dictionary with a NUL byte, a NaN
// payload, -0.0), then one row, so two nodes' bodies are the zero byte.
func goldenLoads(t *testing.T, schema colstore.Schema) []*colstore.Batch {
	t.Helper()
	nan := math.Float64frombits(0x7ff8000000000123)
	b := colstore.NewBatch(schema)
	for i := 0; i < 40; i++ {
		x := math.Sqrt(float64(i)) + 1e-9
		switch i % 10 {
		case 3:
			x = nan
		case 7:
			x = math.Copysign(0, -1)
		}
		if err := b.AppendRow(int64(i), x, []string{"red", "green", "blue\x00"}[i/14], i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	one := colstore.NewBatch(schema)
	if err := one.AppendRow(int64(1000), 0.5, "", true); err != nil {
		t.Fatal(err)
	}
	return []*colstore.Batch{b, one}
}

// TestParentWALReplays: testdata/parent_wal is a log written by the commit
// before load records moved onto the shared chunk codec (CREATE TABLE, then
// the goldenLoads). Its load records must decode and re-encode to the bytes
// on disk, and recovery over it must rebuild exactly what loading the same
// batches builds.
func TestParentWALReplays(t *testing.T) {
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString},
		{Name: "ok", Type: colstore.TypeBool},
	}
	const seg = "wal-0000000000000000.log"
	golden, err := os.ReadFile(filepath.Join("testdata", "parent_wal", seg))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, walSubdir)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDir, seg), golden, 0o644); err != nil {
		t.Fatal(err)
	}

	loads := 0
	if _, err := wal.Replay(walDir, 0, func(lsn uint64, typ byte, body []byte) error {
		if typ != recLoad {
			return nil
		}
		loads++
		table, parts, err := decodeLoad(body, func(string) (colstore.Schema, error) { return schema, nil })
		if err != nil {
			t.Fatalf("lsn %d: %v", lsn, err)
		}
		again, err := encodeLoad(table, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("lsn %d: load record re-encodes to %d bytes that differ from the %d on disk", lsn, len(again), len(body))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Fatalf("golden log holds %d load records, want 2", loads)
	}

	re, err := Open(Config{Nodes: 3, Durable: true, DataDir: dir, BlockRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ref, err := Open(Config{Nodes: 3, BlockRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.CreateTable(&catalog.TableDef{Name: "g", Schema: schema, Seg: catalog.Segmentation{Kind: catalog.SegHash, Column: "id"}}); err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenLoads(t, schema) {
		if err := ref.Load("g", b); err != nil {
			t.Fatal(err)
		}
	}
	gotSegs, err := re.Segments("g")
	if err != nil {
		t.Fatal(err)
	}
	wantSegs, err := ref.Segments("g")
	if err != nil {
		t.Fatal(err)
	}
	for node := range wantSegs {
		got, err := gotSegs[node].ReadAll(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wantSegs[node].ReadAll(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("node %d: recovered %d rows, want %d", node, got.Len(), want.Len())
		}
		for r := 0; r < want.Len(); r++ {
			g, w := got.Row(r), want.Row(r)
			if g[0] != w[0] || math.Float64bits(g[1].(float64)) != math.Float64bits(w[1].(float64)) || g[2] != w[2] || g[3] != w[3] {
				t.Fatalf("node %d row %d: recovered %v, want %v", node, r, g, w)
			}
		}
	}
}
