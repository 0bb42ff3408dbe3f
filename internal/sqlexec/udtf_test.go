package sqlexec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/telemetry"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
)

// streamDB is a multi-node Database for the streamed-UDTF tests: table
// t(x INT, w FLOAT), x ascending across the nodes, w = x%10.
type streamDB struct {
	def       *catalog.TableDef
	segs      []*colstore.Segment
	instances int
	reg       *udf.Registry
}

func (d *streamDB) TableDef(string) (*catalog.TableDef, error)   { return d.def, nil }
func (d *streamDB) Segments(string) ([]*colstore.Segment, error) { return d.segs, nil }
func (d *streamDB) UDFs() *udf.Registry                          { return d.reg }
func (d *streamDB) UDFInstancesPerNode() int                     { return d.instances }
func (d *streamDB) Services() map[string]any                     { return nil }

// newStreamDB loads perNode[i] rows into node i in sealed blocks of
// blockRows (plus whatever tail is left).
func newStreamDB(t *testing.T, perNode []int, blockRows, instances int) *streamDB {
	t.Helper()
	schema := colstore.Schema{
		{Name: "x", Type: colstore.TypeInt64},
		{Name: "w", Type: colstore.TypeFloat64},
	}
	db := &streamDB{def: &catalog.TableDef{Name: "t", Schema: schema}, instances: instances, reg: udf.NewRegistry()}
	next := 0
	for _, n := range perNode {
		seg := colstore.NewSegment(schema, blockRows)
		b := colstore.NewBatch(schema)
		for i := 0; i < n; i++ {
			if err := b.AppendRow(int64(next), float64(next%10)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := seg.Append(b); err != nil {
			t.Fatal(err)
		}
		db.segs = append(db.segs, seg)
	}
	return db
}

// probeTransform records how it was invoked and emits nothing.
type probeTransform struct {
	mu    *sync.Mutex
	calls *[]udf.Ctx
	fail  error
}

func (probeTransform) OutputSchema(in colstore.Schema, params udf.Params) (colstore.Schema, error) {
	return colstore.Schema{{Name: "v", Type: colstore.TypeFloat64}}, nil
}

func (p probeTransform) ProcessPartition(ctx *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	p.mu.Lock()
	*p.calls = append(*p.calls, *ctx)
	p.mu.Unlock()
	if p.fail != nil {
		return p.fail
	}
	for {
		b, err := in.Next()
		if err != nil || b == nil {
			return err
		}
	}
}

// A statement left without a partition — empty table, a WHERE the zone maps
// or the rows reject entirely — still runs one instance, on the first node,
// over an empty stream: the function's own errors do not depend on the data.
func TestUDTFRunsOneInstanceOverNothing(t *testing.T) {
	for name, c := range map[string]struct {
		perNode []int
		where   string
		over    string
		want    int // instances
	}{
		"empty table":          {[]int{0, 0, 0}, "", "PARTITION BEST", 1},
		"empty table, by":      {[]int{0, 0, 0}, "", "PARTITION BY x", 1},
		"zone maps prune all":  {[]int{300, 300, 300}, " WHERE x >= 100000", "PARTITION BEST", 1}, // sealed only: no tail to read
		"rows all filtered":    {[]int{250, 250, 250}, " WHERE w > 50", "PARTITION BEST", 3},      // the tails have no zone map: one range a node
		"rows all filtered by": {[]int{250, 250, 250}, " WHERE w > 50", "PARTITION BY x", 1},
		"populated":            {[]int{250, 0, 250}, "", "PARTITION BEST", 4},
	} {
		db := newStreamDB(t, c.perNode, 100, 2)
		var mu sync.Mutex
		var calls []udf.Ctx
		boom := errors.New("boom")
		for _, fail := range []error{nil, boom} {
			calls = nil
			fn := "Probe"
			if fail != nil {
				fn = "ProbeFail"
			}
			if err := db.reg.Register(fn, func() udf.Transform { return probeTransform{mu: &mu, calls: &calls, fail: fail} }); err != nil {
				t.Fatal(err)
			}
			_, err := RunSelectCtx(context.Background(), db, selStmt(t, "SELECT "+fn+"(w, x) OVER ("+c.over+") FROM t"+c.where))
			if !errors.Is(err, fail) {
				t.Fatalf("%s: err = %v, want %v", name, err, fail)
			}
			if len(calls) != c.want {
				t.Fatalf("%s: %d instances ran, want %d", name, len(calls), c.want)
			}
			for _, call := range calls {
				if len(call.InSchema) != 2 || call.InSchema[0].Type != colstore.TypeFloat64 || call.InSchema[1].Type != colstore.TypeInt64 {
					t.Fatalf("%s: instance saw argument schema %v, want (FLOAT, INTEGER)", name, call.InSchema)
				}
				if call.NumNodes != 3 {
					t.Fatalf("%s: NumNodes = %d, want 3", name, call.NumNodes)
				}
			}
			if c.want == 1 && strings.HasPrefix(name, "empty") && (calls[0].NodeID != 0 || calls[0].Instance != 0) {
				t.Fatalf("%s: the lone instance ran as node %d instance %d, want 0/0", name, calls[0].NodeID, calls[0].Instance)
			}
		}
	}
}

// USING PARAMETERS values are literals as INSERT and WHERE read them: a
// negative number is one, a computed value is not.
func TestUDTFParametersTakeNegativeLiterals(t *testing.T) {
	db := newStreamDB(t, []int{10}, 100, 1)
	var mu sync.Mutex
	var calls []udf.Ctx
	if err := db.reg.Register("Probe", func() udf.Transform { return probeTransform{mu: &mu, calls: &calls} }); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT Probe(w USING PARAMETERS model='m', k=-1, f=-2.5, n=- -3) OVER (PARTITION BEST) FROM t"
	if _, err := RunSelectCtx(context.Background(), db, selStmt(t, sql)); err != nil {
		t.Fatal(err)
	}
	want := udf.Params{"model": "m", "k": int64(-1), "f": -2.5, "n": int64(3)}
	if len(calls) != 1 || fmt.Sprint(calls[0].Params) != fmt.Sprint(want) {
		t.Fatalf("instances saw %v, want one with %v", calls, want)
	}
	if _, err := RunSelectCtx(context.Background(), db, selStmt(t, "SELECT Probe(w USING PARAMETERS k=1+1) OVER (PARTITION BEST) FROM t")); err == nil || !strings.Contains(err.Error(), `parameter "k" must be a literal`) {
		t.Fatalf("k=1+1: err = %v", err)
	}
}

// A streamed UDTF keeps its scan accounting — rows, blocks, skips, bytes
// merged over the instances' cursors — names its partitions, and its two
// operators still sum to (at most) the statement.
func TestUDTFStreamProfile(t *testing.T) {
	db := newStreamDB(t, []int{1000, 1000}, 100, 4)
	if err := db.reg.Register("PartSum", func() udf.Transform { return sumTransform{} }); err != nil {
		t.Fatal(err)
	}
	log := telemetry.NewSpanLog(nil)
	root := log.StartSpan("query")
	ctx := telemetry.ContextWithSpan(context.Background(), root)
	// Node 0 holds x in [0,1000): blocks 5..9 survive; node 1 holds
	// [1000,2000): all 10 survive. min(4, survivors) ranges each.
	res, err := RunSelectCtx(ctx, db, selStmt(t, "PROFILE SELECT PartSum(w) OVER (PARTITION BEST) FROM t WHERE x >= 500 AND w < 5"))
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if res.Len() != 8 {
		t.Fatalf("%d partition sums, want 8 (one per block range)", res.Len())
	}
	total := 0.0
	for _, v := range res.Batch.Cols[0].Floats {
		total += v
	}
	if total != 1500 { // 150 decades x (0+1+2+3+4)
		t.Fatalf("partition sums total %v, want 1500", total)
	}
	ops := map[string]OpProfile{}
	for _, op := range res.Profile.Ops() {
		ops[op.Op] = op
	}
	scan, fn := ops["scan"], ops["udtf"]
	if scan.Rows != 750 || scan.Blocks != 15 || scan.BlocksSkipped != 5 || scan.Bytes == 0 {
		t.Fatalf("scan profile %+v, want 750 rows / 15 blocks / 5 skipped / bytes", scan)
	}
	if fn.Partitions != 8 || fn.Parallel != 8 || fn.Detail != "PARTSUM over 8 block ranges" {
		t.Fatalf("udtf profile %+v, want 8 partitions, parallel 8, detail naming the block ranges", fn)
	}
	if scan.Elapsed < 0 || fn.Elapsed < 0 || scan.Elapsed+fn.Elapsed > res.Profile.Total {
		t.Fatalf("scan %v + udtf %v should be non-negative and within the statement's %v", scan.Elapsed, fn.Elapsed, res.Profile.Total)
	}
	attrs := map[string]map[string]string{}
	for _, sp := range log.Export() {
		if !sp.Ended {
			t.Fatalf("span %s was never ended", sp.Name)
		}
		attrs[sp.Name] = map[string]string{}
		for _, a := range sp.Attrs {
			attrs[sp.Name][a.Key] = a.Value
		}
	}
	if a := attrs["op:udtf"]; a["partitions"] != "8" || a["parallel"] != "8" {
		t.Fatalf("op:udtf span attrs %v, want partitions=8 parallel=8", a)
	}
	if a := attrs["op:scan"]; a["rows"] != "750" || a["blocks"] != "15" || a["blocks_skipped"] != "5" {
		t.Fatalf("op:scan span attrs %v, want rows=750 blocks=15 blocks_skipped=5", a)
	}

	// PARTITION BY still reports partitions, not block ranges.
	res, err = RunSelectCtx(context.Background(), db, selStmt(t, "PROFILE SELECT PartSum(w) OVER (PARTITION BY w) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Profile.Ops() {
		if op.Op == "udtf" && (op.Partitions != 20 || op.Detail != "PARTSUM over 20 partitions") {
			t.Fatalf("PARTITION BY udtf profile %+v, want 20 partitions (10 keys x 2 nodes)", op)
		}
	}
}

// A WHERE storage cannot take — columns compared with each other, arithmetic —
// is the leaf's residual, under either partitioning: PROFILE lists scan,
// filter, udtf, the scan and the filter naming the rows the function reads,
// the three within the statement's time and every one a plan operator's.
func TestUDTFResidualProfile(t *testing.T) {
	schema := colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "g", Type: colstore.TypeInt64},
		{Name: "x0", Type: colstore.TypeFloat64},
		{Name: "x1", Type: colstore.TypeFloat64},
	}
	var rows [][]any
	for i := 0; i < 3000; i++ {
		rows = append(rows, []any{int64(i), int64(i % 5), float64(i%17) / 4, float64(i%13) / 4})
	}
	db := &segsDB{reg: udf.NewRegistry()}
	db.add(t, "ev", schema, rows, 3, 64, 10, -1)
	if err := db.reg.Register("PartSum", func() udf.Transform { return sumTransform{} }); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		where, over string
		keep        func(x0, x1 float64) bool
	}{
		{"x0 > x1", "PARTITION BEST", func(x0, x1 float64) bool { return x0 > x1 }},
		{"x0 * 2 > 1", "PARTITION BEST", func(x0, _ float64) bool { return x0*2 > 1 }},
		{"x0 > x1", "PARTITION BY g", func(x0, x1 float64) bool { return x0 > x1 }},
	} {
		kept, want := 0, 0.0
		for _, r := range rows {
			if x0 := r[2].(float64); c.keep(x0, r[3].(float64)) {
				kept, want = kept+1, want+x0
			}
		}
		sql := "SELECT PartSum(x0) OVER (" + c.over + ") FROM ev WHERE " + c.where
		sel := selStmt(t, "PROFILE "+sql)
		res, err := RunSelectCtx(context.Background(), db, sel)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got := 0.0
		for _, v := range res.Batch.Cols[0].Floats {
			got += v
		}
		if got != want {
			t.Fatalf("%s: partition sums total %v, want %v", sql, got, want)
		}
		ops := res.Profile.Ops()
		var names []string
		var sum time.Duration
		var stats []plan.OpStat
		for _, op := range ops {
			names = append(names, op.Op)
			if op.Elapsed < 0 {
				t.Fatalf("%s: %s took %v", sql, op.Op, op.Elapsed)
			}
			sum += op.Elapsed
			stats = append(stats, plan.OpStat{Op: op.Op, Rows: op.Rows})
		}
		if strings.Join(names, " ") != "scan filter udtf" {
			t.Fatalf("%s: operators %v, want scan, filter, udtf", sql, names)
		}
		scan, filter, fn := ops[0], ops[1], ops[2]
		if scan.Rows != int64(kept) || filter.Rows != int64(kept) || scan.Blocks == 0 || !strings.HasPrefix(filter.Detail, "residual WHERE ") {
			t.Fatalf("%s: scan %+v, filter %+v, want %d rows each past the residual", sql, scan, filter, kept)
		}
		if fn.Rows != int64(res.Len()) || fn.Partitions < 1 {
			t.Fatalf("%s: udtf %+v, want %d rows", sql, fn, res.Len())
		}
		if sum > res.Profile.Total {
			t.Fatalf("%s: operators sum to %v, the statement took %v", sql, sum, res.Profile.Total)
		}
		p, err := plan.Build(selStmt(t, sql), db)
		if err != nil {
			t.Fatal(err)
		}
		if _, unmatched := p.MatchActuals(stats); len(unmatched) > 0 {
			t.Fatalf("%s: operators %v outside the plan", sql, unmatched)
		}
	}
}

// storedSumTransform sums its last argument like sumTransform, but takes its
// input as stored blocks wherever the reader offers them.
type storedSumTransform struct{ sumTransform }

func (storedSumTransform) ProcessPartition(ctx *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	sr, ok := in.(udf.StoredReader)
	if !ok {
		return errors.New("a PARTITION BEST reader is no udf.StoredReader")
	}
	last := len(ctx.InSchema) - 1
	total := 0.0
	for {
		blocks, rows, b, err := sr.NextStored(150)
		if err != nil {
			return err
		}
		if blocks == nil && b == nil {
			break
		}
		if blocks != nil {
			if len(blocks) != len(ctx.InSchema) || rows > 150 {
				return errors.New("NextStored(150) handed out the wrong blocks")
			}
			b = colstore.NewBatch(ctx.InSchema)
			for j, blk := range blocks {
				if err := colstore.DecodeBlockInto(b.Cols[j], blk); err != nil {
					return err
				}
			}
		}
		for _, x := range b.Cols[last].Floats {
			total += x
		}
	}
	return out.Write(&colstore.Batch{
		Schema: colstore.Schema{{Name: "total", Type: colstore.TypeFloat64}},
		Cols:   []*colstore.Vector{colstore.FloatVector([]float64{total})},
	})
}

// A function that asks for stored blocks gets every sealed block row it may
// have that way — bare columns, repeated or reordered, nothing filtered, no
// larger than it has room for — and batches otherwise, with the same answer;
// op:udtf says how many of each and op:scan counts them all.
func TestUDTFStoredReader(t *testing.T) {
	for _, c := range []struct {
		blockRows       int
		args, where     string
		stored, decoded int
		blocks          int64 // scanned
		total           float64
	}{
		{100, "w", "", 18, 2, 18, 8550},          // 2 nodes x (9 blocks + a 50-row tail)
		{100, "x, w, x, w", "", 18, 2, 18, 8550}, //
		{200, "w", "", 0, 10, 8, 8550},           // 4 blocks + a 150-row tail a node, all over 150 rows
		{100, "w + 0", "", 0, 20, 18, 8550},      // a computed argument
		// Node 1's 9 blocks and its tail, behind an exact predicate (node 0's
		// blocks are pruned) and behind a residual (they are read and emptied).
		{100, "w", " WHERE x >= 950", 0, 10, 9, 4275},
		{100, "w", " WHERE x + 0 >= 950", 0, 10, 18, 4275},
	} {
		db := newStreamDB(t, []int{950, 950}, c.blockRows, 3)
		if err := db.reg.Register("StoredSum", func() udf.Transform { return storedSumTransform{} }); err != nil {
			t.Fatal(err)
		}
		q := "PROFILE SELECT StoredSum(" + c.args + ") OVER (PARTITION BEST) FROM t" + c.where
		res, err := RunSelectCtx(context.Background(), db, selStmt(t, q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		total := 0.0
		for _, v := range res.Batch.Cols[0].Floats {
			total += v
		}
		if total != c.total {
			t.Fatalf("%s: sums total %v, want %v", q, total, c.total)
		}
		ops := map[string]OpProfile{}
		for _, op := range res.Profile.Ops() {
			ops[op.Op] = op
		}
		want := fmt.Sprintf("STOREDSUM over %d block ranges, %d block rows forwarded stored, %d batches decoded", res.Len(), c.stored, c.decoded)
		if got := ops["udtf"].Detail; got != want {
			t.Fatalf("%s: udtf detail %q, want %q", q, got, want)
		}
		if scan := ops["scan"]; scan.Blocks != c.blocks || scan.Bytes == 0 || scan.Rows != int64(c.total/4.5) {
			t.Fatalf("%s: scan profile %+v, want %d blocks and %d rows", q, scan, c.blocks, int64(c.total/4.5))
		}
	}
}

// cancelTransform cancels the query while holding its first batch and
// counts what the reader hands it afterwards.
type cancelTransform struct {
	cancel context.CancelFunc
	after  *atomic.Int64
}

func (cancelTransform) OutputSchema(in colstore.Schema, params udf.Params) (colstore.Schema, error) {
	return colstore.Schema{{Name: "v", Type: colstore.TypeFloat64}}, nil
}

func (c cancelTransform) ProcessPartition(ctx *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	canceled := false
	for {
		b, err := in.Next()
		if err != nil || b == nil {
			return err
		}
		if canceled {
			c.after.Add(1)
		}
		c.cancel()
		canceled = true
	}
}

// A canceled query stops feeding every instance within one block.
func TestUDTFCancelStopsWithinOneBlock(t *testing.T) {
	db := newStreamDB(t, []int{2000, 2000}, 50, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var after atomic.Int64
	if err := db.reg.Register("CancelMe", func() udf.Transform { return cancelTransform{cancel: cancel, after: &after} }); err != nil {
		t.Fatal(err)
	}
	_, err := RunSelectCtx(ctx, db, selStmt(t, "SELECT CancelMe(w) OVER (PARTITION BEST) FROM t"))
	if !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("err = %v, want verr.ErrCanceled", err)
	}
	if n := after.Load(); n != 0 {
		t.Fatalf("%d batches reached an instance after it canceled the query, want 0", n)
	}
}
