package vft

import (
	"bytes"
	"context"
	"testing"

	"verticadr/internal/colstore"
)

// fuzzSchemas are the schemas FuzzDecodeChunk decodes against, indexed by
// the selector byte. They cover single- and multi-column shapes and every
// column type.
func fuzzSchemas() []colstore.Schema {
	return []colstore.Schema{
		{{Name: "id", Type: colstore.TypeInt64}},
		{{Name: "x", Type: colstore.TypeFloat64}},
		{
			{Name: "id", Type: colstore.TypeInt64},
			{Name: "a", Type: colstore.TypeFloat64},
			{Name: "b", Type: colstore.TypeFloat64},
		},
		{
			{Name: "s", Type: colstore.TypeString},
			{Name: "ok", Type: colstore.TypeBool},
		},
	}
}

// storedRun builds a message the way the export forwards sealed blocks: n
// rows of the schema in blocks of blockRows, each block row's stored blocks
// one chunk. Ascending integers seal as DELTA, cycling strings as DICT,
// constant booleans as RLE.
func storedRun(schema colstore.Schema, n, blockRows int) []byte {
	seg := colstore.NewSegment(schema, blockRows)
	b := colstore.NewBatch(schema)
	for i := 0; i < n; i++ {
		row := make([]any, len(schema))
		for j, c := range schema {
			switch c.Type {
			case colstore.TypeInt64:
				row[j] = int64(1000 + i)
			case colstore.TypeFloat64:
				row[j] = float64(i) / 3
			case colstore.TypeString:
				row[j] = []string{"red", "green", "blue"}[i%3]
			case colstore.TypeBool:
				row[j] = true
			}
		}
		if err := b.AppendRow(row...); err != nil {
			panic(err)
		}
	}
	if err := seg.Append(b); err != nil {
		panic(err)
	}
	if err := seg.Seal(); err != nil {
		panic(err)
	}
	curs, err := seg.ScanCursors(nil, nil, 1)
	if err != nil {
		panic(err)
	}
	defer curs[0].Close()
	var msg []byte
	for {
		blocks, _, _, err := curs[0].NextStored(context.Background(), n)
		if err != nil {
			panic(err)
		}
		if blocks == nil {
			return msg
		}
		var m message
		m.addStored(blocks)
		m.cut()
		msg = append(msg, bytes.Join(m.parts, nil)...)
	}
}

// FuzzDecodeChunk hardens the hub's decode loop against hostile messages. A
// message is a run of chunks beside the row count its sender declares:
// truncated column blocks, oversized length prefixes, wrong column counts,
// runs that stop mid-chunk, garbage payloads and wrong counts must return an
// error — never panic, never allocate unboundedly, never reslice past the
// message — and anything that does decode must validate, hold the declared
// rows, and be what decoding its chunks one at a time yields.
func FuzzDecodeChunk(f *testing.F) {
	// Valid chunks for each schema shape as seeds.
	mk := func(schema colstore.Schema, rows ...[]any) []byte {
		b := colstore.NewBatch(schema)
		for _, r := range rows {
			if err := b.AppendRow(r...); err != nil {
				panic(err)
			}
		}
		msg, err := EncodeChunk(b)
		if err != nil {
			panic(err)
		}
		return msg
	}
	schemas := fuzzSchemas()
	f.Add(uint8(0), uint16(2), mk(schemas[0], []any{int64(1)}, []any{int64(2)}))
	f.Add(uint8(1), uint16(1), mk(schemas[1], []any{3.5}))
	f.Add(uint8(2), uint16(1), mk(schemas[2], []any{int64(7), 0.5, -1.0}))
	f.Add(uint8(3), uint16(2), mk(schemas[3], []any{"hello", true}, []any{"", false}))
	valid := mk(schemas[0], []any{int64(9)})
	f.Add(uint8(0), uint16(1), valid[:len(valid)/2])                                // truncated mid-block
	f.Add(uint8(0), uint16(0), []byte{})                                            // empty frame
	f.Add(uint8(0), uint16(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})          // huge ncols varint
	f.Add(uint8(2), uint16(1), append([]byte{3, 0xff, 0xff, 0xff, 0x7f}, valid...)) // oversized column length
	f.Add(uint8(1), uint16(1), mk(schemas[0], []any{int64(1)}))                     // type mismatch vs schema
	// Runs: two encoded chunks; stored block rows, one, two and forty of them
	// (DELTA integers, DICT strings, RLE booleans); a run cut short; a count
	// that is off by one.
	two := append(mk(schemas[2], []any{int64(7), 0.5, -1.0}), mk(schemas[2], []any{int64(8), 1.5, -2.0}, []any{int64(9), 2.5, -3.0})...)
	f.Add(uint8(2), uint16(3), two)
	f.Add(uint8(2), uint16(2), two)
	f.Add(uint8(0), uint16(16), storedRun(schemas[0], 16, 16))
	f.Add(uint8(3), uint16(24), storedRun(schemas[3], 24, 12))
	f.Add(uint8(2), uint16(16), storedRun(schemas[2], 16, 8))
	forty := storedRun(schemas[3], 40*4-1, 4)
	f.Add(uint8(3), uint16(40*4-1), forty)
	f.Add(uint8(3), uint16(40*4-1), forty[:len(forty)-2])

	f.Fuzz(func(t *testing.T, schemaSel uint8, rows uint16, msg []byte) {
		schema := fuzzSchemas()[int(schemaSel)%len(fuzzSchemas())]
		msg = msg[:len(msg):len(msg)] // a reslice past the message panics
		// A recycled batch, as the hub's pool hands out.
		got := colstore.NewBatch(schema)
		_ = got.AppendRow(rowOf(schema)...)
		got.Reset()
		if err := decodeRun(got, [][]byte{msg}, int(rows)); err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("decoded run fails validation: %v", verr)
		}
		if got.Len() != int(rows) {
			t.Fatalf("decodeRun accepted %d rows for a declared %d", got.Len(), rows)
		}
		// Chunk by chunk with the one-shot decoder: the same rows, and the
		// run ends where the message does.
		n := 0
		for rest := msg; len(rest) > 0; {
			one := colstore.NewBatch(schema)
			var err error
			if rest, err = colstore.DecodeChunkInto(one, rest); err != nil {
				t.Fatalf("chunk at byte %d of an accepted run: %v", len(msg)-len(rest), err)
			}
			n += one.Len()
		}
		if n != got.Len() {
			t.Fatalf("decodeRun decoded %d rows, its chunks hold %d", got.Len(), n)
		}
	})
}

// rowOf builds one arbitrary row matching the schema, used to dirty reused
// batches before decoding into them.
func rowOf(schema colstore.Schema) []any {
	row := make([]any, len(schema))
	for i, c := range schema {
		switch c.Type {
		case colstore.TypeInt64:
			row[i] = int64(-1)
		case colstore.TypeFloat64:
			row[i] = -1.0
		case colstore.TypeString:
			row[i] = "dirty"
		case colstore.TypeBool:
			row[i] = true
		}
	}
	return row
}
