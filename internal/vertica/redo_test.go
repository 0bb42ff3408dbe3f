package vertica

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/wal"
)

func durable4(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Config{Nodes: 4, Durable: true, DataDir: dir, BlockRows: 64, WALSegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// rowsFor is n rows of schema from base on, every column type filled.
func rowsFor(t *testing.T, schema colstore.Schema, base, n int) *colstore.Batch {
	t.Helper()
	b := colstore.NewBatch(schema)
	for i := base; i < base+n; i++ {
		row := make([]any, len(schema))
		for c, col := range schema {
			switch col.Type {
			case colstore.TypeInt64:
				row[c] = int64(i * (c + 1))
			case colstore.TypeFloat64:
				row[c] = math.Sqrt(float64(i)) + float64(c)
			case colstore.TypeString:
				row[c] = fmt.Sprintf("s%d", i%5)
			case colstore.TypeBool:
				row[c] = i%3 == 0
			}
		}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// redoWorkload commits interleaved COPYs into two tables — some larger than
// a block, some whose rows all land on one node — with index DDL, a DROP
// TABLE and a CREATE TABLE of the same name under another schema, and blob
// puts and deletes between them.
func redoWorkload(t *testing.T, db *DB, phase int) {
	t.Helper()
	ctx := context.Background()
	exec := func(sql string) {
		t.Helper()
		if err := db.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	load := func(table string, node, base, n int) {
		t.Helper()
		def, err := db.cat.Get(table)
		if err != nil {
			t.Fatal(err)
		}
		b := rowsFor(t, def.Schema, base, n)
		if node >= 0 {
			err = db.LoadAt(table, node, b)
		} else {
			err = db.Load(table, b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if phase == 0 {
		exec("CREATE TABLE a (id INTEGER, x FLOAT, s VARCHAR, ok BOOLEAN) SEGMENTED BY HASH(id)")
		exec("CREATE TABLE b (id INTEGER, y FLOAT)")
	}
	base := phase * 100000
	sizes := []int{1, 200, 17, 3, 130, 64, 9, 400}
	for i := 0; i < 24; i++ {
		load("a", -1, base+1000*i, sizes[i%len(sizes)])
		load("b", i%4, base+1000*i, 5+i) // three of four node parts empty
		switch i {
		case 3:
			exec(fmt.Sprintf("CREATE INDEX a_id%d ON a (id)", phase))
			exec(fmt.Sprintf("CREATE INDEX b_id%d ON b (id)", phase))
		case 6:
			if err := db.JournalBlobPut(fmt.Sprintf("models/m%d", phase), []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := db.JournalBlobPut(fmt.Sprintf("models/n%d", phase), []byte("two")); err != nil {
				t.Fatal(err)
			}
		case 9:
			exec(fmt.Sprintf("CREATE INDEX a_s%d ON a (s)", phase))
			exec(fmt.Sprintf("DROP INDEX a_id%d", phase))
		case 12:
			exec("DROP TABLE b")
			if (i+phase)%2 == 0 {
				exec("CREATE TABLE b (id INTEGER, tag VARCHAR, z FLOAT) SEGMENTED BY HASH(id)")
			} else {
				exec("CREATE TABLE b (id INTEGER, y FLOAT)")
			}
		case 15:
			if err := db.JournalBlobDelete(fmt.Sprintf("models/m%d", phase)); err != nil {
				t.Fatal(err)
			}
			exec(fmt.Sprintf("CREATE INDEX b_id%d ON b (id)", phase))
		}
	}
}

// stateHashes fingerprints what a checkpoint of db would hold: each
// segment's Persist bytes, each index tree's encoding and each blob.
func stateHashes(t *testing.T, db *DB) map[string][32]byte {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string][32]byte)
	for _, name := range db.cat.List() {
		segs, err := db.Segments(name)
		if err != nil {
			t.Fatal(err)
		}
		for node, seg := range segs {
			path := filepath.Join(dir, fmt.Sprintf("%s.%d.vseg", name, node))
			if err := seg.Clone().Persist(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s node%d.vseg", name, node)] = sha256.Sum256(data)
		}
		for _, d := range db.Indexes() {
			if d.Table != name {
				continue
			}
			for node, seg := range segs {
				tree := seg.Index(d.Column)
				if tree == nil {
					t.Fatalf("index %s has no tree on node %d", d.Name, node)
				}
				out[fmt.Sprintf("%s %s node%d.vidx", name, d.Name, node)] = sha256.Sum256(tree.Encode())
			}
		}
	}
	for _, f := range db.fs.List() {
		data, err := db.fs.Read(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		out["blob "+f.Name] = sha256.Sum256(data)
	}
	return out
}

// TestRecoverPerNodeRedoSameBytes: a 4-node database recovered by per-node
// redo holds, byte for byte, the segments, index trees and blobs its live
// commits built. With a checkpoint, the live database is the one reopened
// from it: a checkpoint seals each tail into a short block, which only the
// reopen takes on, so the redo after it is held to live commits made on the
// same image.
func TestRecoverPerNodeRedoSameBytes(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			db := durable4(t, dir)
			redoWorkload(t, db, 0)
			if checkpoint {
				if _, err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				db.Close()
				db = durable4(t, dir)
			}
			redoWorkload(t, db, 1)
			want := stateHashes(t, db)
			db.Close()

			re := durable4(t, dir)
			defer re.Close()
			info := re.RecoveryInfo()
			if (info.CheckpointLSN != 0) != checkpoint || info.Replay.Records < 50 {
				t.Fatalf("recovery %+v: want a replay of the log after the checkpoint (checkpoint %v)", info, checkpoint)
			}
			got := stateHashes(t, re)
			if len(got) != len(want) {
				t.Fatalf("recovered %d files, the live database %d", len(got), len(want))
			}
			for k, h := range want {
				if got[k] != h {
					t.Fatalf("%s differs after recovery", k)
				}
			}
		})
	}
}

// TestRecoverFailsCleanlyOnCorruptNodeChunk: a load record whose node-2
// chunk names the wrong column type under a valid frame CRC cuts cleanly on
// the log reader and fails on node 2's worker. Open fails on that record's
// LSN, not on a later one, and leaves no goroutine behind.
func TestRecoverFailsCleanlyOnCorruptNodeChunk(t *testing.T) {
	dir := t.TempDir()
	db := durable4(t, dir)
	createDTable(t, db, "m")
	for i := 0; i < 5; i++ {
		if err := db.Load("m", dBatch(t, 100*i, 90)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	parts := make([]*colstore.Batch, 4)
	for n := range parts {
		parts[n] = dBatch(t, 1000*n, 40)
	}
	good, err := encodeLoad("m", parts)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	_, chunks, err := cutLoad(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, n1 := binary.Uvarint(chunks[2])           // the column count
	_, n2 := binary.Uvarint(chunks[2][n1:])      // the first block's length
	chunks[2][n1+n2] = byte(colstore.TypeString) // the first block's type byte, in bad
	w, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	badLSN := w.DurableLSN()
	for _, body := range [][]byte{bad, good, good} { // good loads behind the bad one
		if _, err := w.AppendCommit(recLoad, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	re, err := Open(Config{Nodes: 4, Durable: true, DataDir: dir, BlockRows: 64})
	if err == nil {
		re.Close()
		t.Fatal("recovery applied a load whose node-2 chunk is corrupt")
	}
	var ae *wal.ApplyError
	if !errors.As(err, &ae) || ae.LSN != badLSN || !strings.Contains(err.Error(), fmt.Sprintf("wal: replay apply at lsn %d", badLSN)) {
		t.Fatalf("Open failed with %v, want the apply of the record at lsn %d", err, badLSN)
	}
	// Open joins its workers before it returns, so there is nothing to wait for.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the failed Open, %d before it", after, before)
	}
}
