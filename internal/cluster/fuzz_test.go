package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/sqlparse"
	"verticadr/internal/vft"
)

// FuzzShardRequestBuilds hardens the peer's handling of a read request that
// carries broadcast build tables — bytes off a router's connection: a schema
// the chunk does not fit, JOIN positions out of range or named twice, build
// tables on a statement with no such JOIN, corrupt chunks. Each must come
// back as an error, never a panic, and a request that does decode must run
// (or fail to plan) like any statement.
func FuzzShardRequestBuilds(f *testing.F) {
	schemas := []colstore.Schema{
		{{Name: "id", Type: colstore.TypeInt64}, {Name: "x", Type: colstore.TypeFloat64}},
		{{Name: "id", Type: colstore.TypeInt64}},
		{{Name: "s", Type: colstore.TypeString}, {Name: "flag", Type: colstore.TypeBool}, {Name: "x", Type: colstore.TypeFloat64}},
		{{Name: "x", Type: colstore.TypeFloat64}, {Name: "x", Type: colstore.TypeFloat64}},
		{{Name: "id", Type: 9}},
		{},
	}
	mk := func(schema colstore.Schema, rows ...[]any) []byte {
		b := colstore.NewBatch(schema)
		for _, r := range rows {
			if err := b.AppendRow(r...); err != nil {
				f.Fatal(err)
			}
		}
		chunk, err := vft.EncodeChunk(b)
		if err != nil {
			f.Fatal(err)
		}
		return chunk
	}
	const rowsSQL = `SELECT t.id, u.x FROM t JOIN t u ON t.id = u.id ORDER BY t.id`
	const aggSQL = `SELECT u.x, count(*) AS n, sum(t.x) AS s FROM t JOIN t u ON t.id = u.id JOIN t v ON u.x = v.x GROUP BY u.x`
	good := mk(schemas[0], []any{int64(1), 0.5}, []any{int64(2), 1.5})
	f.Add(rowsSQL, int8(0), uint8(0), good, int8(-1), uint8(0), []byte{})
	f.Add(aggSQL, int8(0), uint8(0), good, int8(1), uint8(0), good)
	f.Add("EXPLAIN "+rowsSQL, int8(0), uint8(0), good, int8(-1), uint8(0), []byte{})
	f.Add(aggSQL, int8(1), uint8(0), good, int8(1), uint8(0), good)                  // one JOIN named twice
	f.Add(rowsSQL, int8(1), uint8(0), good, int8(-1), uint8(0), []byte{})            // position out of range
	f.Add(`SELECT id FROM t`, int8(0), uint8(0), good, int8(-1), uint8(0), []byte{}) // no JOIN at all
	f.Add(`DROP TABLE t`, int8(0), uint8(0), good, int8(-1), uint8(0), []byte{})
	f.Add(rowsSQL, int8(0), uint8(1), good, int8(-1), uint8(0), []byte{})                              // chunk wider than schema
	f.Add(rowsSQL, int8(0), uint8(2), mk(schemas[2], []any{"a", true, 0.5}), int8(-1), uint8(0), good) // no key column shipped
	f.Add(rowsSQL, int8(0), uint8(3), good, int8(-1), uint8(0), []byte{})                              // duplicate column
	f.Add(rowsSQL, int8(0), uint8(4), good, int8(-1), uint8(0), []byte{})                              // invalid type
	f.Add(rowsSQL, int8(0), uint8(5), []byte{0}, int8(-1), uint8(0), []byte{})                         // no columns
	f.Add(rowsSQL, int8(0), uint8(0), good[:len(good)-2], int8(-1), uint8(0), []byte{})                // truncated

	sess, err := core.Start(nodeConfig(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(sess.Close)
	ctx := context.Background()
	if err := sess.ExecContext(ctx, `CREATE TABLE t (id INTEGER, x FLOAT)`); err != nil {
		f.Fatal(err)
	}
	if err := sess.ExecContext(ctx, `INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 1.5)`); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, sql string, join1 int8, sel1 uint8, chunk1 []byte, join2 int8, sel2 uint8, chunk2 []byte) {
		req := shardRequest{SQL: sql, Shards: []int{0}}
		req.Builds = append(req.Builds, buildTable{Join: int(join1), Schema: schemas[int(sel1)%len(schemas)], chunk: chunk1})
		if len(chunk2) > 0 {
			req.Builds = append(req.Builds, buildTable{Join: int(join2), Schema: schemas[int(sel2)%len(schemas)], chunk: chunk2})
		}
		// Through the wire form, as the peer receives it: the payload as
		// JSON, the chunks as the frame's bodies.
		payload, err := json.Marshal(req)
		if err != nil {
			t.Skip()
		}
		bodies := req.bodies()
		var got shardRequest
		if err := decodeRequest(opSelect, payload, &got); err != nil {
			t.Fatalf("a marshaled request does not decode: %v", err)
		}
		if got.setBodies(opSelect, bodies[1:]) == nil || got.setBodies(opSelect, append(bodies, nil)) == nil {
			t.Fatal("a frame with a body too few or too many was accepted")
		}
		if err := got.setBodies(opSelect, bodies); err != nil {
			t.Fatal(err)
		}
		stmt, err := sqlparse.Parse(got.SQL)
		if err != nil {
			return
		}
		tables, err := overlayBuilds(ctx, stmt, got.Builds)
		if err != nil {
			return
		}
		for name, tab := range tables {
			if tab.def.Name != name || !tab.def.Schema.Equal(tab.seg.Schema()) {
				t.Fatalf("overlay %q disagrees with its segment", name)
			}
			if tab.seg.Rows() > 4096 {
				return // a run-length bomb: decoded without incident, too big to join here
			}
		}
		view, release := sess.DB.ShardView(got.Shards)
		defer release()
		for _, op := range []string{opSelect, opAgg} {
			if b, err := runShards(ctx, op, &overlayView{Database: view, tables: tables}, stmt); err == nil {
				if err := b.Validate(); err != nil {
					t.Fatalf("%s of %q answered an invalid batch: %v", op, sql, err)
				}
			}
		}
	})
}
