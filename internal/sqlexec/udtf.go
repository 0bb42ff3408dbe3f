package sqlexec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"verticadr/internal/colstore"
	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
)

// runUDTF executes a transform-function query of the form
//
//	SELECT f(args... USING PARAMETERS ...) OVER (PARTITION BEST | PARTITION BY cols) FROM t
//
// The planner spawns parallel function instances (§3.1). Their input is a
// walker leaf (walk.go), opened, filtered and booked as every statement's is.
// With PARTITION BEST each node's surviving blocks are cut into up to
// UDFInstancesPerNode contiguous block ranges, and every instance pulls its
// own range through the walk's scan→residual step, then the argument
// expressions — block by block, on the instance's goroutine — so no
// intermediate is larger than a block. With PARTITION BY rows are grouped by
// the key columns and each group is one partition; grouping needs every key
// before any partition can run, so that mode walks the leaf into one batch a
// node first.
//
// n is the plan's UDTF (or dot-product join) node; its child is the input
// scan, always sequential.
func runUDTF(ctx context.Context, db Database, sel *sqlparse.Select, n *plan.Node, prof *Profile) (*Result, error) {
	// The plan roots in a UDTF node exactly when the statement's one
	// projection is a function call with OVER.
	fc := sel.Items[0].Expr.(*sqlparse.FuncCall)
	factory, err := db.UDFs().Lookup(fc.Name)
	if err != nil {
		return nil, err
	}
	params, err := evalParams(fc)
	if err != nil {
		return nil, err
	}
	over := fc.Over
	scan := n.Children[0]
	lc, err := resolveUDTFInput(db, sel, fc, scan)
	if err != nil {
		return nil, err
	}
	segs, err := db.Segments(sel.From)
	if err != nil {
		return nil, err
	}
	best := over.PartitionBest || len(over.PartitionBy) == 0
	cut := blockRanges
	if best {
		k := max(db.UDFInstancesPerNode(), 1)
		cut = func(*colstore.Segment) int { return k }
	}
	// WHERE filters the input rows before partitioning, through the leaf's
	// access path: the pushable conjuncts exactly in storage, the rest — a
	// column it does not know among them — as its residual.
	in := &input{ctx: ctx, prof: prof, limit: math.MaxInt, scanKept: true}
	if err := in.openLeaf(lc, segs, scan, cut); err != nil {
		return nil, err
	}
	// The arguments' types are what evaluating them over no rows yields, and
	// an argument the engine cannot evaluate fails the statement whatever the
	// table holds, before any instance runs.
	empty := colstore.NewBatch(in.view)
	inSchema := make(colstore.Schema, len(fc.Args))
	for i, a := range fc.Args {
		v, err := evalExpr(a, empty)
		if err != nil {
			return nil, err
		}
		inSchema[i] = colstore.ColumnSchema{Name: exprName(a, i), Type: v.Type}
	}
	outSchema, err := factory().OutputSchema(inSchema, params)
	if err = cmp.Or(err, in.pending); err != nil {
		return nil, err
	}

	in.startLeafOps()
	var parts []partition
	onNode := map[int]int{} // instances so far on each node
	add := func(node int, r udf.BatchReader) {
		parts = append(parts, partition{node: node, instance: onNode[node], in: r, out: udf.NewAppendWriter(outSchema)})
		onNode[node]++
	}
	t0 := prof.now()
	if best {
		defer func() {
			for _, cur := range in.ranges {
				cur.Close()
			}
		}()
		in.openBooks()
		// Arguments that are bare columns over rows nothing filters can reach
		// the function as stored blocks (udf.StoredReader).
		var argCol []int
		if in.residual == nil {
			argCol = bareColumns(fc.Args, in.cols)
		}
		for i, cur := range in.ranges {
			if cur.MaxRows() == 0 {
				// Nothing to read: reading it only counts its zone-map skips.
				if _, err := cur.Next(ctx); err != nil {
					return nil, err
				}
				continue
			}
			add(in.nodes[i], &blockStream{in: in, r: rangeBuf{cur: cur}, args: fc.Args, argCol: argCol, inSchema: inSchema})
		}
	} else {
		in.keepLeaf()
		c := &byNode{in: in, nodes: make([]*collector, len(segs))}
		for k := range c.nodes {
			c.nodes[k] = &collector{in: in, out: colstore.NewBatch(in.out)}
		}
		if err := in.walk(c); err != nil {
			return nil, err
		}
		for node, rows := range c.nodes {
			keyed, err := keyPartitions(rows.out, over.PartitionBy, fc.Args, inSchema)
			if err != nil {
				return nil, err
			}
			for _, b := range keyed {
				add(node, &ctxReader{ctx: ctx, inner: udf.NewSliceReader(b)})
			}
		}
	}
	// A function's errors must not depend on what the table holds — and
	// under PARTITION BEST on what its zone maps prune: a statement left
	// without a partition still runs one instance, over an empty stream.
	if len(parts) == 0 {
		add(0, &ctxReader{ctx: ctx, inner: udf.NewSliceReader()})
	}

	// Every instance writes its own output and the outputs merge in partition
	// order below, so the result is deterministic whatever the interleaving.
	// A task keeps its function's error to itself — every instance runs,
	// whatever another returns — so the statement fails with the pool's own
	// failure (an injected one) or else the lowest-index instance's.
	services := db.Services() // snapshot once; instances only read it
	err = parallel.NewPool(maxParallel(len(parts))).ForEach(len(parts), func(i int) error {
		p := &parts[i]
		uctx := &udf.Ctx{Params: params, InSchema: inSchema, NodeID: p.node, NumNodes: len(segs), Instance: p.instance, Services: services}
		// The instance's time is the function's, but for what its stream
		// books to the scan and the filter from its own clock.
		t := prof.now()
		clock := &t
		if s, ok := p.in.(*blockStream); ok {
			s.r.t, clock = t, &s.r.t
		}
		p.err = factory().ProcessPartition(uctx, p.in, p.out)
		in.lap(in.consumeStage(), *clock, 0)
		return nil
	})
	in.wall = prof.now() - t0
	for _, p := range parts {
		err = cmp.Or(err, p.err)
	}
	if err != nil {
		return nil, err
	}
	// The scan line names the instances' degree under PARTITION BEST, where
	// the scan ran inside them, and none under PARTITION BY.
	in.degree = 0
	if best {
		in.degree = maxParallel(len(parts))
	}
	udtfDone := startOp(ctx, prof, "udtf")
	udtfDone.extra = in.finishOps()
	rows := 0
	var stored, decoded int // what instances that asked for stored blocks were handed
	for _, p := range parts {
		rows += p.out.Rows()
		if s, ok := p.in.(*blockStream); ok {
			stored, decoded = stored+s.stored, decoded+s.decoded
		}
	}
	merged := colstore.NewBatchCap(outSchema, rows)
	for _, p := range parts {
		if err := p.out.AppendTo(merged); err != nil {
			return nil, err
		}
	}
	udtfDone.Parallel = maxParallel(len(parts))
	udtfDone.Partitions = len(parts)
	unit := "partitions"
	if best {
		unit = "block ranges"
	}
	udtfDone.done(int64(merged.Len()), func() string {
		detail := fmt.Sprintf("%s over %d %s", fc.Name, len(parts), unit)
		if stored+decoded > 0 {
			detail += fmt.Sprintf(", %d block rows forwarded stored, %d batches decoded", stored, decoded)
		}
		return detail
	})
	return finishSelect(ctx, merged, sel, prof)
}

// resolveUDTFInput resolves the function's input scan for the columns its
// arguments and PARTITION BY read, once per plan (the scan's Memo).
func resolveUDTFInput(db Database, sel *sqlparse.Select, fc *sqlparse.FuncCall, scan *plan.Node) (*leafCols, error) {
	if lc, ok := scan.Memo.Load().(*leafCols); ok {
		return lc, nil
	}
	def, err := db.TableDef(sel.From)
	if err != nil {
		return nil, err
	}
	reads := &sqlparse.Select{GroupBy: fc.Over.PartitionBy}
	for _, a := range fc.Args {
		reads.Items = append(reads.Items, sqlparse.SelectItem{Expr: a})
	}
	need, err := collectCols(reads, def.Schema)
	if err != nil {
		return nil, err
	}
	lc, err := resolveLeaf(def, scan, need)
	if err != nil {
		return nil, err
	}
	scan.Memo.Store(lc)
	return lc, nil
}

// partition is one function instance: the node it runs on and its place
// among that node's instances, the rows it reads, what it writes and how it
// ended. The reader stops at a canceled query within one block: a
// blockStream's cursor checks the context itself, anything else is wrapped in
// a ctxReader.
type partition struct {
	node, instance int
	in             udf.BatchReader
	out            *udf.AppendWriter
	err            error
}

func maxParallel(n int) int { return min(max(n, 1), 64) }

// byNode hands each range of a walk to its node's collector: a PARTITION BY
// input, one batch a node.
type byNode struct {
	in    *input
	taken int
	nodes []*collector
}

func (c *byNode) take(r *rangeBuf) (func() error, error) {
	c.taken++
	return c.nodes[c.in.nodes[c.taken-1]].take(r)
}

func (c *byNode) finish() error { return nil }

// bareColumns maps each argument to the position of the column it names in
// cols, or returns nil when there is no argument or one is not a bare column.
func bareColumns(args []sqlparse.Expr, cols []string) []int {
	if len(args) == 0 {
		return nil
	}
	out := make([]int, len(args))
	for i, a := range args {
		ref, ok := a.(*sqlparse.ColRef)
		if !ok {
			return nil
		}
		out[i] = slices.Index(cols, ref.Name)
		if out[i] < 0 {
			return nil
		}
	}
	return out
}

// blockStream is a PARTITION BEST instance's input: its block range pulled
// through the walk's scan→residual step (input.pull), then the argument
// expressions, one block at a time. The batch Next returns is valid until the
// next call — the cursor's decode buffers and the kept rows' batch are
// reused. A stream belongs to the instance's goroutine; its counts are read
// once it has finished.
//
// It is the one udf.StoredReader: with argCol set — every argument a bare
// column of the scan, no residual — a block row the cursor can hand over as
// stored (no exact predicate either, and small enough for the caller) goes to
// the function as the arguments' encoded blocks, undecoded.
type blockStream struct {
	in       *input
	r        rangeBuf // the range's cursor, residual scratch and clock
	args     []sqlparse.Expr
	argCol   []int // per argument, its column in the cursor's scan; nil = always decode
	inSchema colstore.Schema

	kept   *colstore.Batch // the rows the residual keeps of the current block
	blocks [][]byte        // NextStored's reused result slice
	// Through NextStored: block rows handed over stored, batches decoded.
	stored, decoded int
}

func (s *blockStream) Next() (*colstore.Batch, error) {
	_, _, b, err := s.next(0)
	return b, err
}

func (s *blockStream) MaxRows() int { return s.r.cur.MaxRows() }

func (s *blockStream) NextStored(maxRows int) ([][]byte, int, *colstore.Batch, error) {
	if s.argCol == nil {
		maxRows = 0
	}
	blocks, rows, b, err := s.next(maxRows)
	if blocks != nil {
		s.stored++
	} else if b != nil {
		s.decoded++
	}
	return blocks, rows, b, err
}

// next is the walk's pull followed by what stands between it and the
// function: the arguments' order for stored blocks, the kept rows and the
// argument expressions for a batch. The time since the last call was the
// function's.
func (s *blockStream) next(maxRows int) ([][]byte, int, *colstore.Batch, error) {
	in := s.in
	s.r.t = in.lap(in.consumeStage(), s.r.t, 0)
	blocks, rows, b, sel, err := in.pull(&s.r, maxRows)
	if err != nil || (blocks == nil && b == nil) {
		return nil, 0, nil, err
	}
	if blocks != nil {
		s.blocks = s.blocks[:0]
		for _, ci := range s.argCol {
			s.blocks = append(s.blocks, blocks[ci])
		}
		return s.blocks, rows, nil, nil
	}
	if sel != nil {
		if s.kept == nil {
			s.kept = colstore.NewBatch(b.Schema)
		}
		s.kept.Reset()
		if err := s.kept.AppendGather(b, sel); err != nil {
			return nil, 0, nil, err
		}
		b = s.kept
	}
	b, err = evalArgs(s.args, b, s.inSchema)
	return nil, 0, b, err
}

// keyPartitions cuts one node's rows into PARTITION BY partitions: one per
// distinct key tuple, in first-appearance order (the typed group table of
// GROUP BY is the identity), each projected to the function's arguments.
func keyPartitions(raw *colstore.Batch, by []string, args []sqlparse.Expr, inSchema colstore.Schema) ([]*colstore.Batch, error) {
	if raw.Len() == 0 {
		return nil, nil
	}
	argBatch, err := evalArgs(args, raw, inSchema)
	if err != nil {
		return nil, err
	}
	keys := make([]colstore.BlockCol, len(by))
	for i, c := range by {
		keys[i] = colstore.BlockCol{Vals: raw.Cols[raw.Schema.ColIndex(c)]}
	}
	var table groupTable
	sc := aggScratchPool.Get().(*aggScratch)
	gid := table.assign(keys, raw.Len(), sc)
	groups := make([][]int, table.n)
	for r, g := range gid {
		groups[g] = append(groups[g], r)
	}
	aggScratchPool.Put(sc)
	out := make([]*colstore.Batch, len(groups))
	for i, rows := range groups {
		out[i] = argBatch.Gather(rows)
	}
	return out, nil
}

// ctxReader wraps a materialized partition's reader with a per-batch context
// check, so its instance observes cancellation between batches.
type ctxReader struct {
	ctx   context.Context
	inner udf.BatchReader
}

func (r *ctxReader) Next() (*colstore.Batch, error) {
	if err := verr.Canceled(r.ctx.Err()); err != nil {
		return nil, err
	}
	return r.inner.Next()
}

// evalArgs evaluates the function's arguments over raw. Their types are
// inSchema's: what evaluating them over no rows yielded.
func evalArgs(args []sqlparse.Expr, raw *colstore.Batch, inSchema colstore.Schema) (*colstore.Batch, error) {
	out := &colstore.Batch{Schema: inSchema, Cols: make([]*colstore.Vector, len(args))}
	for i, a := range args {
		v, err := evalExpr(a, raw)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = v
	}
	return out, nil
}

// evalParams resolves USING PARAMETERS values, in key order; they must be
// literals.
func evalParams(fc *sqlparse.FuncCall) (udf.Params, error) {
	out := udf.Params{}
	for _, k := range fc.AppendParamKeys(nil) {
		v, ok := sqlparse.Literal(fc.Params[k])
		if !ok {
			return nil, fmt.Errorf("sqlexec: parameter %q must be a literal", k)
		}
		out[k] = v
	}
	return out, nil
}
