package vertica

import (
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
)

// checkScansInPlace holds every sealed PLAIN INTEGER and FLOAT payload of the
// table's segments to 8-byte alignment and a scan to reading it in place: the
// column a cursor delivers for such a block starts at the payload itself.
// It returns the number of payloads checked.
func checkScansInPlace(t *testing.T, db *DB, table string) int {
	t.Helper()
	segs, err := db.Segments(table)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, seg := range segs {
		stored, err := seg.ScanCursors(nil, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := seg.ScanCursors(nil, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for {
			blocks, _, _, err := stored[0].NextStored(context.Background(), math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := decoded[0].Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if blocks == nil {
				break // the tail, or the end
			}
			for ci, blk := range blocks {
				typ := colstore.Type(blk[0])
				if colstore.Encoding(blk[1]) != colstore.EncPlain || typ != colstore.TypeInt64 && typ != colstore.TypeFloat64 {
					continue
				}
				_, m := binary.Uvarint(blk[2:])
				payload := reflect.ValueOf(blk).Pointer() + uintptr(2+m)
				if payload%8 != 0 {
					t.Fatalf("%s: a PLAIN %v payload at %#x is not 8-byte aligned", table, typ, payload)
				}
				col := reflect.ValueOf(b.Cols[ci].Floats)
				if typ == colstore.TypeInt64 {
					col = reflect.ValueOf(b.Cols[ci].Ints)
				}
				if col.Pointer() != payload {
					t.Fatalf("%s: column %d was copied out of its PLAIN block, not read in place", table, ci)
				}
				checked++
			}
		}
		stored[0].Close()
		decoded[0].Close()
	}
	return checked
}

// Blocks sealed by a load (into clones of the head segments), by recovery's
// log replay (in place) and by a checkpoint image's reopen are all read in
// place.
func TestRecoveredBlocksScanInPlace(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	schema := colstore.Schema{{Name: "id", Type: colstore.TypeInt64}, {Name: "big", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64}}
	if err := db.CreateTable(&catalog.TableDef{Name: "p", Schema: schema, Seg: catalog.Segmentation{Kind: catalog.SegHash, Column: "id"}}); err != nil {
		t.Fatal(err)
	}
	load := func(db *DB) {
		b := colstore.NewBatch(schema)
		for i := 0; i < 200; i++ {
			b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
			b.Cols[1].Ints = append(b.Cols[1].Ints, int64(uint64(i)*0x9e3779b97f4a7c15))
			b.Cols[2].Floats = append(b.Cols[2].Floats, math.Sqrt(float64(i))+1e-9)
		}
		if err := db.Load("p", b); err != nil {
			t.Fatal(err)
		}
	}
	load(db)
	want := checkScansInPlace(t, db, "p")
	if want == 0 {
		t.Fatal("no PLAIN numeric block sealed by the load")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := durableDB(t, dir)
	if got := checkScansInPlace(t, replayed, "p"); got != want {
		t.Fatalf("log replay sealed %d PLAIN numeric blocks, the load %d", got, want)
	}
	if _, err := replayed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}

	image := durableDB(t, dir)
	defer image.Close()
	if info := image.RecoveryInfo(); info == nil || info.CheckpointLSN == 0 {
		t.Fatalf("reopened without the checkpoint image: %+v", info)
	}
	// The image seals the tails too.
	if got := checkScansInPlace(t, image, "p"); got < want {
		t.Fatalf("the checkpoint image holds %d PLAIN numeric blocks, the load sealed %d", got, want)
	}
}
