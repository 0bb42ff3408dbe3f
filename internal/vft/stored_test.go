package vft

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/vertica"
)

// sentMsg is one message a recordingSink saw.
type sentMsg struct {
	part int
	seq  uint64
	rows int
	msg  []byte // a copy: the sender recycles its buffer
}

// recordingSink copies every message on its way to the hub.
type recordingSink struct {
	hub  *Hub
	mu   sync.Mutex
	sent []sentMsg
}

func (r *recordingSink) Send(sessionID string, part int, seq uint64, msg [][]byte, rows int, dbTime time.Duration) error {
	r.mu.Lock()
	r.sent = append(r.sent, sentMsg{part: part, seq: seq, rows: rows, msg: bytes.Join(msg, nil)})
	r.mu.Unlock()
	return r.hub.Send(sessionID, part, seq, msg, rows, dbTime)
}

// sorted returns the messages in (part, seq) order, the order finalize
// assembles them in; arrival order depends on the instances' interleaving.
func (r *recordingSink) sorted() []sentMsg {
	out := append([]sentMsg(nil), r.sent...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].part != out[b].part {
			return out[a].part < out[b].part
		}
		return out[a].seq < out[b].seq
	})
	return out
}

// exportSQL runs one locality (or uniform) transfer whose export statement
// the test spells itself — arbitrary argument expressions and FROM/WHERE —
// the way load does: open a session, run the statement, finalize.
func exportSQL(t *testing.T, db *vertica.DB, c *dr.Cluster, hub *Hub, sink ChunkSink, schema colstore.Schema, policy, args, from string, psize int) (*darray.DFrame, *Stats) {
	t.Helper()
	nparts := db.NumNodes()
	if policy == PolicyUniform {
		nparts = c.NumWorkers()
	}
	frame, err := newFrameForTest(c, nparts)
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil {
		sink = hub
	}
	id := hub.open(frame, schema, policy, sink)
	q := fmt.Sprintf("SELECT %s(%s USING PARAMETERS session='%s', policy='%s', psize=%d, workers=%d) OVER (PARTITION BEST) FROM %s",
		FuncName, args, id, policy, psize, c.NumWorkers(), from)
	if err := db.ExecContext(context.Background(), q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	stats, err := hub.finalize(context.Background(), id, c)
	if err != nil {
		t.Fatalf("%s: finalize: %v", q, err)
	}
	return frame, stats
}

// splitRun cuts a message into its chunks' blocks: blocks[k][j] is column
// j's block of the k-th chunk.
func splitRun(t *testing.T, msg []byte) [][][]byte {
	t.Helper()
	var out [][][]byte
	for len(msg) > 0 {
		ncols, n := binary.Uvarint(msg)
		if n <= 0 {
			t.Fatal("corrupt chunk header")
		}
		msg = msg[n:]
		chunk := make([][]byte, ncols)
		for j := range chunk {
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				t.Fatal("truncated chunk")
			}
			chunk[j] = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		}
		out = append(out, chunk)
	}
	return out
}

// mixSchema has one column for each encoding a seal chooses: id ascends
// (DELTA), r repeats (RLE), x is noise with the awkward floats in it (PLAIN),
// s cycles through three strings (DICT).
var mixSchema = colstore.Schema{
	{Name: "id", Type: colstore.TypeInt64},
	{Name: "r", Type: colstore.TypeInt64},
	{Name: "x", Type: colstore.TypeFloat64},
	{Name: "s", Type: colstore.TypeString},
}

func mixRows(lo, n int) *colstore.Batch {
	b := colstore.NewBatch(mixSchema)
	for i := lo; i < lo+n; i++ {
		x := math.Sin(float64(i)) * 1e3
		switch i % 97 {
		case 0:
			x = math.Float64frombits(0x7ff8dead00000000 | uint64(i))
		case 1:
			x = math.Copysign(0, -1)
		case 2:
			x = math.Inf(1 - 2*(i%2))
		}
		_ = b.AppendRow(int64(i), int64(i/40), x, []string{"red", "green", "blue"}[i%3])
	}
	return b
}

const mixBlockRows = 64

// mixDB is two nodes of mixSchema rows in blocks of 64: node n holds
// perNode[n] rows, so a multiple of 64 leaves it no tail.
func mixDB(t *testing.T, perNode ...int) (*vertica.DB, *dr.Cluster, *Hub, []*colstore.Batch) {
	t.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: len(perNode), BlockRows: mixBlockRows, UDFInstancesPerNode: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dr.Start(dr.Config{Workers: len(perNode), InstancesPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	hub := NewHub()
	if err := Register(db, hub); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `CREATE TABLE mix (id INTEGER, r INTEGER, x FLOAT, s VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	held := make([]*colstore.Batch, len(perNode))
	lo := 0
	for node, n := range perNode {
		held[node] = mixRows(lo, n)
		lo += n
		if n > 0 {
			if err := db.LoadAt("mix", node, held[node]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, c, hub, held
}

// sameBits fails unless got holds exactly want's values: floats by bits.
func sameBits(t *testing.T, what string, got, want *colstore.Batch) {
	t.Helper()
	if got.Len() != want.Len() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows x %d columns, want %d x %d", what, got.Len(), len(got.Cols), want.Len(), len(want.Cols))
	}
	for j, w := range want.Cols {
		g := got.Cols[j]
		if g.Type != w.Type {
			t.Fatalf("%s: column %d is %v, want %v", what, j, g.Type, w.Type)
		}
		for i := 0; i < w.Len(); i++ {
			gv, wv := g.Value(i), w.Value(i)
			if gf, ok := gv.(float64); ok {
				gv, wv = math.Float64bits(gf), math.Float64bits(wv.(float64))
			}
			if gv != wv {
				t.Fatalf("%s: column %d row %d is %v, want %v", what, j, i, gv, wv)
			}
		}
	}
}

// A sealed block row reaches the worker as the bytes the segment stores, in
// every encoding, whenever the export may forward it; whatever it may not
// forward — a tail, filtered rows, computed arguments, a block that
// straddles a message boundary or is larger than a message — is decoded and
// encoded as before, and the frame is bitwise the same either way.
func TestExportForwardsStoredBlocks(t *testing.T) {
	ctx := context.Background()

	// Sealed only, a message no smaller than a block: every chunk is stored
	// blocks, byte for byte.
	db, c, hub, held := mixDB(t, 5*mixBlockRows, 3*mixBlockRows)
	for _, psize := range []int{mixBlockRows, 2 * mixBlockRows, 1 << 20} {
		sink := &recordingSink{hub: hub}
		stored0, encoded0 := mBlocksStored.Value(), mBlocksEncoded.Value()
		frame, stats := exportSQL(t, db, c, hub, sink, mixSchema, PolicyLocality, "id, r, x, s", "mix", psize)
		if got := mBlocksStored.Value() - stored0; got != 8 || mBlocksEncoded.Value() != encoded0 {
			t.Fatalf("psize %d: %d block rows forwarded stored and %d encoded, want 8 and 0", psize, got, mBlocksEncoded.Value()-encoded0)
		}
		segs, err := db.Segments("mix")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[colstore.Encoding]bool{}
		msgs := sink.sorted()
		if len(msgs) != stats.Chunks {
			t.Fatalf("psize %d: sink saw %d messages, stats count %d", psize, len(msgs), stats.Chunks)
		}
		for node, seg := range segs {
			curs, err := seg.ScanCursors(nil, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			var sent [][][]byte
			for _, m := range msgs {
				if m.part == node {
					sent = append(sent, splitRun(t, m.msg)...)
				}
			}
			for k := 0; ; k++ {
				blocks, rows, b, err := curs[0].NextStored(ctx, math.MaxInt)
				if err != nil || b != nil {
					t.Fatalf("node %d: a sealed segment handed out a batch (err %v)", node, err)
				}
				if blocks == nil {
					if k != len(sent) {
						t.Fatalf("psize %d node %d: %d chunks sent, segment stores %d block rows", psize, node, len(sent), k)
					}
					break
				}
				if rows != mixBlockRows || k >= len(sent) {
					t.Fatalf("psize %d node %d: block row %d has %d rows; %d chunks sent", psize, node, k, rows, len(sent))
				}
				for j, blk := range blocks {
					if string(sent[k][j]) != string(blk) {
						t.Fatalf("psize %d node %d block row %d column %d: shipped bytes differ from the stored block", psize, node, k, j)
					}
					seen[colstore.Encoding(blk[1])] = true
				}
			}
			curs[0].Close()
			part, err := frame.Part(node)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("psize %d partition %d", psize, node), part, held[node])
		}
		for _, e := range []colstore.Encoding{colstore.EncPlain, colstore.EncRLE, colstore.EncDelta, colstore.EncDict} {
			if !seen[e] {
				t.Fatalf("no stored %v block was exercised", e)
			}
		}
	}

	// What falls back, or mixes the two forms, still assembles the same frame.
	db, c, hub, held = mixDB(t, 5*mixBlockRows+10, 3*mixBlockRows+1, 7)
	schemaOf := func(cols ...int) colstore.Schema {
		var s colstore.Schema
		for _, j := range cols {
			s = append(s, mixSchema[j])
		}
		return s
	}
	project := func(b *colstore.Batch, keep func(i int) bool, cols ...int) *colstore.Batch {
		var idx []int
		for i := 0; i < b.Len(); i++ {
			if keep == nil || keep(i) {
				idx = append(idx, i)
			}
		}
		out := &colstore.Batch{Schema: schemaOf(cols...)}
		for _, j := range cols {
			out.Cols = append(out.Cols, b.Cols[j].Gather(idx))
		}
		return out
	}
	for _, tc := range []struct {
		name            string
		args, from      string
		psize           int
		schema          colstore.Schema
		want            func(b *colstore.Batch) *colstore.Batch
		stored, encoded int64
	}{
		// 8 sealed block rows, three tails.
		{"tails", "id, r, x, s", "mix", 1 << 20, mixSchema,
			func(b *colstore.Batch) *colstore.Batch { return project(b, nil, 0, 1, 2, 3) }, 8, 3},
		// Each instance's range ends with a block that straddles its 100-row
		// messages, and so does the block after a boundary: node 0's ranges
		// are 2+2+1 blocks (+ tail), node 1's 1+1+1 (+ tail).
		{"psize not a multiple of the block", "x, s", "mix", 100, schemaOf(2, 3),
			func(b *colstore.Batch) *colstore.Batch { return project(b, nil, 2, 3) }, 6, 7},
		{"psize under a block", "x, id", "mix", 16, schemaOf(2, 0),
			func(b *colstore.Batch) *colstore.Batch { return project(b, nil, 2, 0) }, 0, 35},
		{"repeated and reordered columns", "s, x, id, x", "mix", 1 << 20, schemaOf(3, 2, 0, 2),
			func(b *colstore.Batch) *colstore.Batch { return project(b, nil, 3, 2, 0, 2) }, 8, 3},
		{"WHERE", "id, x", "mix WHERE r >= 3", 1 << 20, schemaOf(0, 2),
			func(b *colstore.Batch) *colstore.Batch {
				return project(b, func(i int) bool { return b.Cols[1].Ints[i] >= 3 }, 0, 2)
			}, 0, -1},
		{"residual WHERE", "id, x", "mix WHERE r + id >= 100", 1 << 20, schemaOf(0, 2),
			func(b *colstore.Batch) *colstore.Batch {
				return project(b, func(i int) bool { return b.Cols[1].Ints[i]+b.Cols[0].Ints[i] >= 100 }, 0, 2)
			}, 0, -1},
		{"expression argument", "id, id + r", "mix", 1 << 20, colstore.Schema{mixSchema[0], {Name: "sum", Type: colstore.TypeInt64}},
			func(b *colstore.Batch) *colstore.Batch {
				out := project(b, nil, 0, 0)
				sum := make([]int64, b.Len())
				for i := range sum {
					sum[i] = b.Cols[0].Ints[i] + b.Cols[1].Ints[i]
				}
				out.Cols[1] = colstore.IntVector(sum)
				out.Schema = colstore.Schema{mixSchema[0], {Name: "sum", Type: colstore.TypeInt64}}
				return out
			}, 0, 11},
	} {
		stored0, encoded0 := mBlocksStored.Value(), mBlocksEncoded.Value()
		frame, stats := exportSQL(t, db, c, hub, nil, tc.schema, PolicyLocality, tc.args, tc.from, tc.psize)
		rows := 0
		for node := range held {
			want := tc.want(held[node])
			rows += want.Len()
			part, err := frame.Part(node)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s: partition %d", tc.name, node), part, want)
		}
		if stats.Rows != rows {
			t.Fatalf("%s: stats count %d rows, want %d", tc.name, stats.Rows, rows)
		}
		stored, encoded := mBlocksStored.Value()-stored0, mBlocksEncoded.Value()-encoded0
		if stored != tc.stored || (tc.encoded >= 0 && encoded != tc.encoded) {
			t.Fatalf("%s: %d block rows forwarded stored, %d chunks encoded; want %d and %d", tc.name, stored, encoded, tc.stored, tc.encoded)
		}
	}
}

// seqString renders a transfer's messages, in assembly order, as
// "part:node.instance.seq=rows" words.
func seqString(msgs []sentMsg) string {
	var sb strings.Builder
	for i, m := range msgs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:%d.%d.%d=%d", m.part, m.seq>>44, m.seq>>28&0xffff, m.seq&(1<<28-1), m.rows)
	}
	return sb.String()
}

// Message boundaries are the receiver's business too — the uniform policy's
// evenness and every retransmission count hang on them — so the (part, seq,
// rows) sequence of a transfer is pinned to what PR 23 emitted, whichever
// form the rows travel in.
func TestMessageSequenceGolden(t *testing.T) {
	golden := map[string]string{
		"mytable/locality/50":   "0:0.0.0=50 0:0.0.1=50 0:0.0.2=28 0:0.1.0=50 0:0.1.1=50 0:0.1.2=50 0:0.1.3=50 0:0.1.4=50 0:0.1.5=50 0:0.1.6=50 0:0.1.7=22 1:1.0.0=50 1:1.0.1=50 1:1.0.2=28 1:1.1.0=50 1:1.1.1=50 1:1.1.2=50 1:1.1.3=50 1:1.1.4=50 1:1.1.5=50 1:1.1.6=50 1:1.1.7=22 2:2.0.0=50 2:2.0.1=50 2:2.0.2=28 2:2.1.0=50 2:2.1.1=50 2:2.1.2=50 2:2.1.3=50 2:2.1.4=50 2:2.1.5=50 2:2.1.6=50 2:2.1.7=22 3:3.0.0=50 3:3.0.1=50 3:3.0.2=28 3:3.1.0=50 3:3.1.1=50 3:3.1.2=50 3:3.1.3=50 3:3.1.4=50 3:3.1.5=50 3:3.1.6=50 3:3.1.7=22",
		"mytable/locality/256":  "0:0.0.0=128 0:0.1.0=256 0:0.1.1=116 1:1.0.0=128 1:1.1.0=256 1:1.1.1=116 2:2.0.0=128 2:2.1.0=256 2:2.1.1=116 3:3.0.0=128 3:3.1.0=256 3:3.1.1=116",
		"mytable/locality/1000": "0:0.0.0=128 0:0.1.0=372 1:1.0.0=128 1:1.1.0=372 2:2.0.0=128 2:2.1.0=372 3:3.0.0=128 3:3.1.0=372",
		"sk/uniform/50":         "0:1.0.3=50 0:1.0.7=50 0:1.1.2=50 0:1.1.6=50 0:1.1.10=50 1:1.0.0=50 1:1.0.4=50 1:1.0.8=50 1:1.1.3=50 1:1.1.7=50 1:1.1.11=50 2:1.0.1=50 2:1.0.5=50 2:1.0.9=50 2:1.1.0=50 2:1.1.4=50 2:1.1.8=50 2:1.1.12=50 3:1.0.2=50 3:1.0.6=50 3:1.0.10=12 3:1.1.1=50 3:1.1.5=50 3:1.1.9=50 3:1.1.13=38",
		"sk/uniform/256":        "0:1.1.2=176 1:1.0.0=256 2:1.0.1=256 2:1.1.0=256 3:1.1.1=256",
		"sk/uniform/1000":       "1:1.0.0=512 2:1.1.0=688",
	}
	for _, table := range []string{"mytable", "sk"} {
		for _, psize := range []int{50, 256, 1000} {
			var (
				db     *vertica.DB
				c      *dr.Cluster
				hub    *Hub
				schema colstore.Schema
				policy string
				args   string
			)
			if table == "mytable" {
				db, c, hub = setup(t, 4, 4)
				loadTestTable(t, db, 2000)
				policy, args = PolicyLocality, "id, a, b"
			} else {
				db, c, hub = setup(t, 2, 4)
				loadSkewTable(t, db, 1200)
				policy, args = PolicyUniform, "id, v"
			}
			def, err := db.TableDef(table)
			if err != nil {
				t.Fatal(err)
			}
			schema = def.Schema
			sink := &recordingSink{hub: hub}
			exportSQL(t, db, c, hub, sink, schema, policy, args, table, psize)
			key := fmt.Sprintf("%s/%s/%d", table, policy, psize)
			if got := seqString(sink.sorted()); got != golden[key] {
				t.Errorf("%s: message sequence\n  %s\nwant\n  %s", key, got, golden[key])
			}
		}
	}
}

// loadSkewTable puts every row of sk(id, v) on node 1.
func loadSkewTable(t *testing.T, db *vertica.DB, rows int) {
	t.Helper()
	if err := db.ExecContext(context.Background(), `CREATE TABLE sk (id INTEGER, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	b := colstore.NewBatch(colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "v", Type: colstore.TypeFloat64},
	})
	for i := 0; i < rows; i++ {
		_ = b.AppendRow(int64(i), float64(i))
	}
	if err := db.LoadAt("sk", 1, b); err != nil {
		t.Fatal(err)
	}
}
