package sqlexec

import (
	"context"
	"fmt"
	"sync"

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
// The planner spawns parallel function instances: with PARTITION BEST, each
// node's local segment is split into UDFInstancesPerNode chunks processed
// locally (the paper's locality-friendly mode, §3.1); with PARTITION BY, rows
// are grouped by the key columns and each group is one partition.
//
// n is the plan's UDTF (or dot-product join) node; its child is the input
// scan, always sequential: the input streams segment by segment.
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
	// input scan's access path: the most selective pushable conjunct exactly
	// at the storage scan (zone-map skipping + compressed evaluation), every
	// other pushable conjunct as a zone-map-only pruning predicate, the rest
	// as a residual over the scanned batch.
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
	if !over.PartitionBest && len(over.PartitionBy) > 0 {
		for _, c := range over.PartitionBy {
			if def.Schema.ColIndex(c) < 0 {
				return nil, fmt.Errorf("sqlexec: PARTITION BY column %q unknown", c)
			}
		}
		need = union(need, over.PartitionBy)
	}

	type partition struct {
		node int
		data *colstore.Batch // already projected to inSchema
	}
	// A UDTF with no arguments still needs the row count.
	need = scanColumns(need, def.Schema)
	needSchema := mustProject(def.Schema, need)
	scanDone := startOp(ctx, prof, "scan")
	var scanStats colstore.ScanStats
	var scanRows int64
	var parts []partition
	for node, seg := range segs {
		raw, err := scanSegment(ctx, seg, needSchema, need, acc, nil, &scanStats)
		if err != nil {
			return nil, err
		}
		scanRows += int64(raw.Len())
		argBatch, err := evalArgs(fc.Args, raw, inSchema)
		if err != nil {
			return nil, err
		}
		switch {
		case over.PartitionBest || len(over.PartitionBy) == 0:
			k := db.UDFInstancesPerNode()
			if k <= 0 {
				k = 1
			}
			n := argBatch.Len()
			if n == 0 {
				continue
			}
			if k > n {
				k = n
			}
			// Slab-allocate the k partition views (instead of k Batch.Slice
			// calls): three allocations per node regardless of instance count.
			nc := len(argBatch.Cols)
			vecs := make([]colstore.Vector, k*nc)
			ptrs := make([]*colstore.Vector, k*nc)
			views := make([]colstore.Batch, k)
			for i := 0; i < k; i++ {
				lo, hi := i*n/k, (i+1)*n/k
				if lo == hi {
					continue
				}
				cols := ptrs[i*nc : (i+1)*nc : (i+1)*nc]
				for c, src := range argBatch.Cols {
					src.SliceInto(&vecs[i*nc+c], lo, hi)
					cols[c] = &vecs[i*nc+c]
				}
				views[i] = colstore.Batch{Schema: argBatch.Schema, Cols: cols}
				parts = append(parts, partition{node: node, data: &views[i]})
			}
		default: // PARTITION BY
			if raw.Len() == 0 {
				continue
			}
			// One partition per distinct key tuple, in first-appearance
			// order: the typed group table of GROUP BY is the identity.
			keys := make([]colstore.BlockCol, len(over.PartitionBy))
			for i, c := range over.PartitionBy {
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
			for _, rows := range groups {
				parts = append(parts, partition{node: node, data: argBatch.Gather(rows)})
			}
		}
	}

	scanDetail := fmt.Sprintf("%d segments, %d blocks scanned, %d skipped by zone maps, %d KB",
		len(segs), scanStats.BlocksScanned, scanStats.BlocksSkipped, scanStats.BytesRead/1024)
	if scanStats.BlocksCompressed > 0 {
		scanDetail += fmt.Sprintf(", %d evaluated compressed", scanStats.BlocksCompressed)
	}
	scanDone.doneScan(scanStats, scanRows, scanDetail+accessDetail(acc))

	// Run all partitions in parallel (bounded). Each partition writes into
	// its own AppendWriter — no cross-partition locking — and the results
	// merge in partition order below, so UDTF output order is deterministic
	// regardless of goroutine interleaving.
	udtfDone := startOp(ctx, prof, "udtf")
	writers := make([]*udf.AppendWriter, len(parts))
	sem := make(chan struct{}, maxParallel(len(parts)))
	errs := make([]error, len(parts))
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
				NodeID:   p.node,
				NumNodes: len(segs),
				Instance: inst,
				Services: services,
			}
			tf := factory()
			// The input reader re-checks the query context between batches,
			// so a canceled query stops feeding the UDF within one block.
			in := &ctxReader{ctx: ctx, inner: streamReader(p.data)}
			errs[i] = tf.ProcessPartition(uctx, in, writers[i])
		}(i, p, inst)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
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
	udtfDone.Done(int64(merged.Len()), fmt.Sprintf("%s over %d partitions", fc.Name, len(parts)))
	return finishSelect(ctx, merged, sel, prof)
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

// streamReader feeds a batch to the UDF in storage-sized chunks so transforms
// see a stream rather than one giant batch. One view batch (and its column
// headers) is reused across Next calls — allowed by the BatchReader contract,
// which only guarantees a batch until the next call.
func streamReader(b *colstore.Batch) udf.BatchReader {
	return &viewReader{src: b}
}

type viewReader struct {
	src  *colstore.Batch
	off  int
	hdrs []colstore.Vector
	view colstore.Batch
}

func (r *viewReader) Next() (*colstore.Batch, error) {
	if r.off >= r.src.Len() {
		return nil, nil
	}
	hi := r.off + colstore.DefaultBlockRows
	if hi > r.src.Len() {
		hi = r.src.Len()
	}
	if r.hdrs == nil {
		r.hdrs = make([]colstore.Vector, len(r.src.Cols))
		cols := make([]*colstore.Vector, len(r.src.Cols))
		for i := range r.hdrs {
			cols[i] = &r.hdrs[i]
		}
		r.view = colstore.Batch{Schema: r.src.Schema, Cols: cols}
	}
	for i, c := range r.src.Cols {
		c.SliceInto(&r.hdrs[i], r.off, hi)
	}
	r.off = hi
	return &r.view, nil
}

// ctxReader wraps a BatchReader with a per-batch context check, so UDTF
// instances observe cancellation between input blocks.
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
