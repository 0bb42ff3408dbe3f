package sqlexec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
)

// runUDTF executes a transform-function query of the form
//
//	SELECT f(args... USING PARAMETERS ...) OVER (PARTITION BEST | PARTITION BY cols) FROM t
//
// The planner spawns parallel function instances (§3.1). With PARTITION BEST
// a function's input is a stream: each node's surviving blocks are cut into
// up to UDFInstancesPerNode contiguous block ranges, and every instance
// pulls its own range — decode, residual filter, argument evaluation, block
// by block, on the instance's goroutine — so no intermediate is larger than
// a block. With PARTITION BY rows are grouped by the key columns and each
// group is one partition; grouping needs every key before any partition can
// run, so that mode materializes each segment first.
//
// n is the plan's UDTF (or dot-product join) node; its child is the input
// scan, always sequential within a block range.
func runUDTF(ctx context.Context, db Database, sel *sqlparse.Select, n *plan.Node, prof *Profile) (*Result, error) {
	// The plan roots in a UDTF node exactly when the statement's one
	// projection is a function call with OVER.
	fc := sel.Items[0].Expr.(*sqlparse.FuncCall)
	factory, err := db.UDFs().Lookup(fc.Name)
	if err != nil {
		return nil, err
	}
	params, err := evalParams(fc.Params)
	if err != nil {
		return nil, err
	}
	def, err := db.TableDef(sel.From)
	if err != nil {
		return nil, err
	}
	segs, err := db.Segments(sel.From)
	if err != nil {
		return nil, err
	}
	// Resolve the UDTF input schema from its argument expressions.
	inSchema := make(colstore.Schema, len(fc.Args))
	for i, a := range fc.Args {
		name := exprName(a, i)
		t, err := exprType(a, def.Schema)
		if err != nil {
			return nil, err
		}
		inSchema[i] = colstore.ColumnSchema{Name: name, Type: t}
	}
	outSchema, err := factory().OutputSchema(inSchema, params)
	if err != nil {
		return nil, err
	}
	// Columns needed to evaluate the argument expressions.
	need, err := collectExprCols(fc.Args, def.Schema)
	if err != nil {
		return nil, err
	}
	// WHERE filters the UDTF's input rows before partitioning, through the
	// input scan's access path: the pushable conjuncts exactly at the storage
	// scan (zone-map skipping, compressed evaluation, refinement), the rest
	// as a residual over each scanned batch.
	acc := n.Children[0].Access
	if sel.Where != nil {
		if _, err := collectCols(&sqlparse.Select{Where: sel.Where}, def.Schema); err != nil {
			return nil, err
		}
	}
	if acc.Residual != nil {
		extra, err := collectCols(&sqlparse.Select{Where: acc.Residual}, def.Schema)
		if err != nil {
			return nil, err
		}
		need = union(need, extra)
	}
	over := fc.Over
	best := over.PartitionBest || len(over.PartitionBy) == 0
	if !best {
		for _, c := range over.PartitionBy {
			if def.Schema.ColIndex(c) < 0 {
				return nil, fmt.Errorf("sqlexec: PARTITION BY column %q unknown", c)
			}
		}
		need = union(need, over.PartitionBy)
	}
	// A UDTF with no arguments still needs the row count.
	need = scanColumns(need, def.Schema)
	needSchema := mustProject(def.Schema, need)
	// Evaluate the arguments and the residual over no rows first: an
	// expression the engine cannot evaluate fails the statement whatever the
	// table holds.
	empty := colstore.NewBatch(needSchema)
	if _, err := evalArgs(fc.Args, empty, inSchema); err != nil {
		return nil, err
	}
	if acc.Residual != nil {
		if _, err := filterRows(acc.Residual, empty, nil); err != nil {
			return nil, err
		}
	}

	scanDone := startOp(ctx, prof, "scan")
	leaf := &input{leaf: n.Children[0], segs: len(segs)}
	finishScan := func(st colstore.ScanStats, rows int64) { scanDone.doneScan(st, rows, leaf.scanDetail(st)) }
	var parts []partition
	var streams []*blockStream // PARTITION BEST: every cursor, partition or not
	if best {
		defer func() {
			for _, s := range streams {
				s.cur.Close()
			}
		}()
		// Arguments that are bare columns over rows nothing filters can reach
		// the function as stored blocks (udf.StoredReader).
		var argCol []int
		if acc.Residual == nil {
			argCol = bareColumns(fc.Args, need)
		}
		k := max(db.UDFInstancesPerNode(), 1)
		for node, seg := range segs {
			curs, err := seg.ScanCursors(need, acc.Preds, k)
			if err != nil {
				return nil, err
			}
			for _, cur := range curs {
				s := &blockStream{ctx: ctx, cur: cur, residual: acc.Residual, args: fc.Args, argCol: argCol, inSchema: inSchema, prof: prof}
				streams = append(streams, s)
				if cur.MaxRows() > 0 {
					parts = append(parts, partition{node: node, in: s})
				} else if _, err := s.Next(); err != nil {
					// Nothing to read: the walk above only counts the
					// range's zone-map skips.
					return nil, err
				}
			}
		}
	} else {
		var st colstore.ScanStats
		var rows int64
		for node, seg := range segs {
			in := &input{ctx: ctx, limit: math.MaxInt}
			if err := in.openLeaf(def, []*colstore.Segment{seg}, n.Children[0], need); err != nil {
				return nil, err
			}
			raw, err := in.collect()
			if err != nil {
				return nil, err
			}
			st.Add(in.stats())
			rows += int64(raw.Len())
			keyed, err := keyPartitions(raw, over.PartitionBy, fc.Args, inSchema)
			if err != nil {
				return nil, err
			}
			for _, b := range keyed {
				parts = append(parts, partition{node: node, in: &ctxReader{ctx: ctx, inner: udf.NewSliceReader(b)}})
			}
		}
		finishScan(st, rows)
	}
	// A function's errors must not depend on what the table holds — and
	// under PARTITION BEST on what its zone maps prune: a statement left
	// without a partition still runs one instance, over an empty stream.
	if len(parts) == 0 {
		parts = append(parts, partition{in: &ctxReader{ctx: ctx, inner: udf.NewSliceReader()}})
	}

	// Run all partitions in parallel (bounded). Each partition writes into
	// its own AppendWriter — no cross-partition locking — and the results
	// merge in partition order below, so UDTF output order is deterministic
	// regardless of goroutine interleaving.
	udtfDone := startOp(ctx, prof, "udtf")
	var stored, decoded int // what instances that asked for stored blocks were handed
	writers := make([]*udf.AppendWriter, len(parts))
	sem := make(chan struct{}, maxParallel(len(parts)))
	errs := make([]error, len(parts))
	ran := make([]time.Duration, len(parts))
	var wg sync.WaitGroup
	instanceOnNode := map[int]int{}
	services := db.Services() // snapshot once; instances only read it
	for i, p := range parts {
		inst := instanceOnNode[p.node]
		instanceOnNode[p.node]++
		writers[i] = udf.NewAppendWriter(outSchema)
		wg.Add(1)
		go func(i int, p partition, inst int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			uctx := &udf.Ctx{
				Params:   params,
				InSchema: inSchema,
				NodeID:   p.node,
				NumNodes: len(segs),
				Instance: inst,
				Services: services,
			}
			tf := factory()
			start := prof.now()
			errs[i] = tf.ProcessPartition(uctx, p.in, writers[i])
			ran[i] = prof.now() - start
		}(i, p, inst)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if best {
		// The scan ran inside the instances. Its own interval ended where
		// the function's began; from there it takes the share of the
		// instances' wall time their cursors were busy — read, filter,
		// argument evaluation — and the function's operator gives it up, so
		// the two still sum to the statement.
		var st colstore.ScanStats
		var rows int64
		var busy, total time.Duration
		for _, s := range streams {
			st.Add(s.cur.Stats())
			rows += s.rows
			busy += s.busy
			stored += s.stored
			decoded += s.decoded
		}
		for _, d := range ran {
			total += d
		}
		var share time.Duration
		if total > 0 {
			share = time.Duration(float64(prof.now()-udtfDone.t0) * float64(busy) / float64(total))
		}
		scanDone.Parallel = maxParallel(len(parts))
		scanDone.end, scanDone.stopped = udtfDone.t0, true
		scanDone.extra, udtfDone.extra = share, -share
		finishScan(st, rows)
	}
	rows := 0
	for _, w := range writers {
		rows += w.Out.Len()
	}
	merged := colstore.NewBatchCap(outSchema, rows)
	for _, w := range writers {
		if err := merged.AppendBatch(w.Out); err != nil {
			return nil, err
		}
	}
	udtfDone.Parallel = maxParallel(len(parts))
	udtfDone.Partitions = len(parts)
	unit := "partitions"
	if best {
		unit = "block ranges"
	}
	detail := fmt.Sprintf("%s over %d %s", fc.Name, len(parts), unit)
	if stored+decoded > 0 {
		detail += fmt.Sprintf(", %d block rows forwarded stored, %d batches decoded", stored, decoded)
	}
	udtfDone.Done(int64(merged.Len()), detail)
	return finishSelect(ctx, merged, sel, prof)
}

// partition is one function instance's input: the node it runs on and the
// rows it reads. The reader stops at a canceled query within one block: a
// blockStream's cursor checks the context itself, anything else is wrapped in
// a ctxReader.
type partition struct {
	node int
	in   udf.BatchReader
}

func maxParallel(n int) int {
	if n < 1 {
		return 1
	}
	if n > 64 {
		return 64
	}
	return n
}

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

// blockStream is a PARTITION BEST instance's input: a cursor over the
// instance's own block range, the residual filter and the argument
// expressions, applied one block at a time. The batch Next returns is valid
// until the next call — the cursor's decode buffers and the filter's batch
// are reused. A stream belongs to the instance's goroutine; its counts and
// busy are read once it has finished.
//
// It is the one udf.StoredReader: with argCol set — every argument a bare
// column of the scan, no residual — a block row the cursor can hand over as
// stored (no exact predicate either, and small enough for the caller) goes to
// the function as the arguments' encoded blocks, undecoded.
type blockStream struct {
	ctx      context.Context
	cur      *colstore.ScanCursor
	residual sqlparse.Expr
	args     []sqlparse.Expr
	argCol   []int // per argument, its column in the cursor's scan; nil = always decode
	inSchema colstore.Schema
	prof     *Profile

	idx    []int           // residual scratch
	kept   *colstore.Batch // the rows the residual keeps of the current block
	blocks [][]byte        // NextStored's reused result slice
	rows   int64           // rows delivered, past the residual
	busy   time.Duration   // time spent in Next and NextStored
	// Through NextStored: block rows handed over stored, batches decoded.
	stored, decoded int
}

func (s *blockStream) Next() (*colstore.Batch, error) {
	_, _, b, err := s.next(0)
	return b, err
}

func (s *blockStream) MaxRows() int { return s.cur.MaxRows() }

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

// next is the cursor's NextStored followed by whatever stands between the
// scan and the function: nothing for stored blocks but the arguments' order,
// the residual and the argument expressions for a batch.
func (s *blockStream) next(maxRows int) ([][]byte, int, *colstore.Batch, error) {
	t0 := s.prof.now()
	defer func() { s.busy += s.prof.now() - t0 }()
	for {
		blocks, rows, b, err := s.cur.NextStored(s.ctx, maxRows)
		if err != nil || (blocks == nil && b == nil) {
			return nil, 0, nil, err
		}
		if blocks != nil {
			s.blocks = s.blocks[:0]
			for _, ci := range s.argCol {
				s.blocks = append(s.blocks, blocks[ci])
			}
			s.rows += int64(rows)
			return s.blocks, rows, nil, nil
		}
		if s.residual != nil {
			if s.idx, err = filterRows(s.residual, b, s.idx); err != nil {
				return nil, 0, nil, err
			}
			if len(s.idx) == 0 {
				continue
			}
			if s.kept == nil {
				s.kept = colstore.NewBatch(b.Schema)
			}
			s.kept.Reset()
			if err := s.kept.AppendGather(b, s.idx); err != nil {
				return nil, 0, nil, err
			}
			b = s.kept
		}
		s.rows += int64(b.Len())
		b, err = evalArgs(s.args, b, s.inSchema)
		return nil, 0, b, err
	}
}

// keyPartitions cuts one segment's rows into PARTITION BY partitions: one
// per distinct key tuple, in first-appearance order (the typed group table
// of GROUP BY is the identity), each projected to the function's arguments.
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

func evalArgs(args []sqlparse.Expr, raw *colstore.Batch, inSchema colstore.Schema) (*colstore.Batch, error) {
	out := &colstore.Batch{Schema: inSchema, Cols: make([]*colstore.Vector, len(args))}
	for i, a := range args {
		v, err := evalExpr(a, raw)
		if err != nil {
			return nil, err
		}
		if v.Type != inSchema[i].Type {
			return nil, fmt.Errorf("sqlexec: UDTF argument %d evaluated to %v, expected %v", i, v.Type, inSchema[i].Type)
		}
		out.Cols[i] = v
	}
	return out, nil
}

func collectExprCols(exprs []sqlparse.Expr, schema colstore.Schema) ([]string, error) {
	fake := &sqlparse.Select{}
	for _, e := range exprs {
		fake.Items = append(fake.Items, sqlparse.SelectItem{Expr: e})
	}
	return collectCols(fake, schema)
}

// evalParams resolves USING PARAMETERS values; they must be literals.
func evalParams(in map[string]sqlparse.Expr) (udf.Params, error) {
	out := udf.Params{}
	for k, e := range in {
		v, ok := literalValue(e)
		if !ok {
			return nil, fmt.Errorf("sqlexec: parameter %q must be a literal", k)
		}
		out[k] = v
	}
	return out, nil
}

// exprType infers an expression's result type against a schema.
func exprType(e sqlparse.Expr, schema colstore.Schema) (colstore.Type, error) {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		i := schema.ColIndex(x.Name)
		if i < 0 {
			return colstore.TypeInvalid, fmt.Errorf("sqlexec: unknown column %q", x.Name)
		}
		return schema[i].Type, nil
	case *sqlparse.NumberLit:
		if x.IsInt {
			return colstore.TypeInt64, nil
		}
		return colstore.TypeFloat64, nil
	case *sqlparse.StringLit:
		return colstore.TypeString, nil
	case *sqlparse.BoolLit:
		return colstore.TypeBool, nil
	case *sqlparse.Unary:
		if x.Op == "NOT" {
			return colstore.TypeBool, nil
		}
		return exprType(x.X, schema)
	case *sqlparse.Binary:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return colstore.TypeBool, nil
		case "/":
			return colstore.TypeFloat64, nil
		default:
			lt, err := exprType(x.L, schema)
			if err != nil {
				return colstore.TypeInvalid, err
			}
			rt, err := exprType(x.R, schema)
			if err != nil {
				return colstore.TypeInvalid, err
			}
			if lt == colstore.TypeInt64 && rt == colstore.TypeInt64 {
				return colstore.TypeInt64, nil
			}
			return colstore.TypeFloat64, nil
		}
	case *sqlparse.FuncCall:
		switch x.Name {
		case "UPPER", "LOWER":
			return colstore.TypeString, nil
		default:
			return colstore.TypeFloat64, nil
		}
	}
	return colstore.TypeInvalid, fmt.Errorf("sqlexec: cannot type expression %T", e)
}
