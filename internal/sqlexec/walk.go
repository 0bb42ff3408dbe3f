package sqlexec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/parallel"
	"verticadr/internal/plan"
	"verticadr/internal/sqlparse"
	"verticadr/internal/verr"
)

// The pipelined walker. An Aggregate's or Project's input — a scan, or a
// left-deep chain of hash joins over scans — runs as one pass over the probe
// side's cursor ranges. Each range is a task on the process pool: it pulls
// its blocks, filters them, probes every join's build table (read once,
// before the walk) and appends the columns its consumer reads to a buffer of
// its own. parallel.Window bounds the ranges waiting for their turn and the
// buffers are recycled, so only the build sides and the result grow with the
// input.
//
// A range learns where its rows fall in the filtered (or joined) sequence
// once every range before it is taken, so consumers take ranges in order.
// The aggregate folds each 4096-row chunk of that sequence — the boundaries a
// fold over the whole input cuts — into its own partial: a chunk that spans
// ranges piece by piece, in order, as the ranges are taken; the chunks inside
// a range beside other ranges' work. Partials merge in chunk order into
// parallel.Reduce's tree, so per group the additions and their order are the
// whole-input fold's at every degree. A projection appends range outputs to
// its result in range order. A UDTF's input is the same leaf: under
// PARTITION BEST each range is read inside its function instance through
// pull (udtf.go).

// rangeBlocks is a cursor range's share of a segment, in sealed blocks.
const rangeBlocks = 4

// The walk's stages in pipeline order — the scan, its residual, each join,
// the top join's residual, the consumer — which is also the order the
// whole-input walk met their errors in (input.fail).
const (
	stageScan = iota
	stageFilter
	stageJoins
)

// input is an Aggregate's, Project's or UDTF's input, planned and ready to
// walk.
type input struct {
	ctx  context.Context
	prof *Profile

	// The leaf: its cursor ranges in (segment, block) order, each range's
	// node (its segment's place) and its residual.
	leaf     *plan.Node
	segs     int
	ranges   []*colstore.ScanCursor
	nodes    []int
	idle     colstore.ScanStats // what cursors kept out of ranges read: an index's segments without a match
	fellBack int                // an index scan's segments without the index
	runs     bool               // the ranges feed foldRuns, not the walk
	degree   int                // the scan line's parallel: what the ranges ran at
	// scanKept makes the scan line count the rows past the residual: a
	// function's input, whose scan names the rows the function reads.
	scanKept bool
	residual sqlparse.Expr
	cols     []string        // the leaf's columns asked for
	view     colstore.Schema // a leaf batch under the stream's names
	joins    []*joinTable
	filter   sqlparse.Expr   // the top join's residual
	keep     []int           // the consumer's columns in the last stream schema
	out      colstore.Schema // ... their schema: a range buffer's
	star     colstore.Schema // what SELECT * expands against
	// eval turns a range's rows into what its consumer takes, beside the
	// other ranges (a projection's items); nil takes the rows.
	eval func(rows *colstore.Batch) (*colstore.Batch, error)

	// pending is the first error the whole-input walk would have met after
	// the leaf's — a build side's, a join key's, an expression's over no
	// rows — and limit its stage: the walk runs the stages before it only,
	// since their errors came first.
	pending error
	limit   int

	scanOp, filterOp, topOp *opTimer

	mu      sync.Mutex
	ready   []*rangeBuf // finished ranges awaiting their turn
	next    int
	free    chan *rangeBuf
	busy    []atomic.Int64 // nanoseconds per stage, over all ranges
	outRows []atomic.Int64 // rows out of each stage
	wall    time.Duration
	reserve int // rows a range buffer is made for
}

// consumer takes the ranges of a walk in order, under its lock, and returns
// work to run outside it (or nil); finish runs after the last one.
type consumer interface {
	take(r *rangeBuf) (func() error, error)
	finish() error
}

// rangeBuf is a range's rows — the consumer's columns, and what eval made of
// them — and the walk's scratch, reused range after range.
type rangeBuf struct {
	rows, out *colstore.Batch
	cur       *colstore.ScanCursor // the last range's: it passes on its decode buffers
	t         time.Duration        // where the booking of the range's time stands (lap)
	view      colstore.Batch       // a leaf batch under the stream's names
	mid       []*colstore.Batch
	idx, seq  []int
	ids       []int32
	l, r      []int
}

// lap books the time since t to a stage and rows rows out of it, and
// returns the time now.
func (in *input) lap(stage int, t time.Duration, rows int) time.Duration {
	in.outRows[stage].Add(int64(rows))
	if in.prof == nil {
		return 0
	}
	now := in.prof.now()
	in.busy[stage].Add(int64(now - t))
	return now
}

// openBooks zeroes what lap books, for a walk through every stage.
func (in *input) openBooks() {
	n := in.consumeStage() + 1
	in.busy, in.outRows = make([]atomic.Int64, n), make([]atomic.Int64, n)
}

// inputSchema is what the statement's columns resolve against: the table's
// schema, or under a join the joined scans' columns ("alias.column", probe
// side first).
func inputSchema(db Database, n *plan.Node) (colstore.Schema, error) {
	if n.Op == plan.OpHashJoin {
		l, err := inputSchema(db, n.Children[0])
		if err != nil {
			return nil, err
		}
		r, err := inputSchema(db, n.Children[1])
		return append(l, r...), err
	}
	def, err := db.TableDef(n.Table)
	if err != nil || n.Alias == "" {
		return def.Schema, err
	}
	cols, err := def.Schema.Project(n.Cols)
	return qualify(cols, n.Alias), err
}

func qualify(s colstore.Schema, alias string) colstore.Schema {
	out := make(colstore.Schema, len(s))
	for i, c := range s {
		out[i] = colstore.ColumnSchema{Name: alias + "." + c.Name, Type: c.Type}
	}
	return out
}

// openInput plans the walk of n: the columns each stage carries (what the
// consumer reads, the top join's residual, the keys of the joins above), the
// leaf's ranges and every join's build side, read here. Operators start in
// plan post-order.
func openInput(ctx context.Context, db Database, n *plan.Node, sel *sqlparse.Select, prof *Profile) (*input, error) {
	in := &input{ctx: ctx, prof: prof, limit: math.MaxInt}
	var err error
	if in.star, err = inputSchema(db, n); err != nil {
		return nil, err
	}
	var joins []*plan.Node
	for ; n.Op == plan.OpHashJoin; n = n.Children[0] {
		joins = append([]*plan.Node{n}, joins...)
	}
	def, err := db.TableDef(n.Table)
	if err != nil {
		return nil, err
	}
	leafCols := n.Cols
	if leafCols == nil { // one table: the columns the statement names
		if leafCols, err = collectCols(sel, def.Schema); err != nil {
			return nil, err
		}
	}
	leafCols = scanColumns(leafCols, def.Schema)
	name := func(c string) string {
		if n.Alias == "" {
			return c
		}
		return n.Alias + "." + c
	}
	need, err := collectCols(&sqlparse.Select{Items: sel.Items, GroupBy: sel.GroupBy}, in.star)
	if err != nil {
		return nil, err
	}
	if len(need) == 0 { // COUNT(*) still needs the rows
		need = []string{name(leafCols[0])}
	}
	// carry[k]: the columns entering join k; carry[len(joins)]: leaving the
	// last one.
	carry := make([]map[string]bool, len(joins)+1)
	top := need
	if len(joins) > 0 {
		top = colRefs(joins[len(joins)-1].Residual, slices.Clone(need))
	}
	for k := len(joins); k >= 0; k-- {
		carry[k] = map[string]bool{}
		for _, c := range top {
			carry[k][c] = true
		}
		if k > 0 {
			top = append(top, joins[k-1].LeftKey)
		}
	}
	var cols []string
	for _, c := range leafCols {
		if carry[0][name(c)] {
			cols = append(cols, c)
		}
	}
	segs, err := db.Segments(n.Table)
	if err != nil {
		return nil, err
	}
	if err := in.openLeaf(def, segs, n, cols, blockRanges); err != nil {
		return nil, err
	}
	in.startLeafOps()
	schema := in.view
	for k, jn := range joins {
		build := jn.Children[1]
		var bcols []string
		for _, c := range build.Cols {
			if q := build.Alias + "." + c; carry[k+1][q] || q == jn.RightKey {
				bcols = append(bcols, c)
			}
		}
		rows, err := readScan(ctx, db, build, bcols, prof)
		t0 := prof.now()
		var j *joinTable
		if err == nil {
			j, err = newJoinTable(jn, schema, rows, carry[k+1])
		}
		if err != nil {
			in.fail(stageJoins, err)
			return in, nil
		}
		j.op = startOp(ctx, prof, "join")
		j.op.charge(prof.now() - t0) // building the table
		in.joins, schema = append(in.joins, j), j.out
	}
	if len(joins) > 0 && joins[len(joins)-1].Residual != nil {
		in.filter = joins[len(joins)-1].Residual
		in.topOp = startOp(ctx, prof, "filter")
		if _, err := filterRows(in.filter, colstore.NewBatch(schema), nil); err != nil {
			in.fail(in.topStage(), err)
		}
	}
	in.keepCols(schema, need)
	return in, nil
}

// keepCols makes the columns of schema named in names a range buffer's.
func (in *input) keepCols(schema colstore.Schema, names []string) {
	for i, c := range schema {
		if slices.Contains(names, c.Name) {
			in.keep, in.out = append(in.keep, i), append(in.out, c)
		}
	}
}

// fail records an error the walk must not report ahead of the errors of the
// stages before stage; only the first one counts.
func (in *input) fail(stage int, err error) {
	if in.pending == nil {
		in.pending, in.limit = err, stage
	}
}

func (in *input) topStage() int     { return stageJoins + len(in.joins) }
func (in *input) consumeStage() int { return stageJoins + len(in.joins) + 1 }

// blockRanges is the walk's cut of a segment: ranges of about rangeBlocks
// surviving blocks each.
func blockRanges(seg *colstore.Segment) int {
	return max(1, (seg.Blocks()+rangeBlocks-1)/rangeBlocks)
}

// openLeaf opens the scan n over segs for cols, plus what its residual
// reads, as cursor ranges: a sequential scan's cut(seg) ranges of each
// segment's surviving blocks (ScanCursors); an index scan's one per segment
// with a match, a segment without the index scanned sequentially under the
// same predicates.
func (in *input) openLeaf(def *catalog.TableDef, segs []*colstore.Segment, n *plan.Node, cols []string, cut func(*colstore.Segment) int) error {
	cols = scanColumns(cols, def.Schema)
	scanCols := cols
	acc := n.Access
	if acc.Residual != nil {
		extra, err := collectCols(&sqlparse.Select{Where: acc.Residual}, def.Schema)
		if err != nil {
			return err
		}
		scanCols = union(cols, extra)
	}
	schema, err := def.Schema.Project(scanCols)
	if err != nil {
		return err
	}
	in.leaf, in.segs, in.cols, in.view, in.residual = n, len(segs), cols, schema, acc.Residual
	if n.Alias != "" {
		in.view = qualify(schema, n.Alias)
	}
	// The residual's errors do not depend on what storage finds.
	if acc.Residual != nil {
		if _, err := filterRows(acc.Residual, colstore.NewBatch(schema), nil); err != nil {
			in.fail(stageFilter, err)
		}
	}
	add := func(node int, curs ...*colstore.ScanCursor) {
		for _, cur := range curs {
			in.ranges, in.nodes = append(in.ranges, cur), append(in.nodes, node)
		}
	}
	for node, seg := range segs {
		if n.Op == plan.OpIndexScan {
			cur, handled, err := seg.IndexCursor(scanCols, acc.Preds, acc.Probe)
			switch {
			case err != nil:
				return err
			case handled && cur.MaxRows() == 0: // no match: its blocks untouched, no range
				cur.Close()
				in.idle.Add(cur.Stats())
				continue
			case handled:
				add(node, cur)
				continue
			}
			in.fellBack++
		}
		curs, err := seg.ScanCursors(scanCols, acc.Preds, cut(seg))
		if err != nil {
			return err
		}
		add(node, curs...)
	}
	return nil
}

// startLeafOps starts the leaf's scan operator and, under a residual, its
// filter operator.
func (in *input) startLeafOps() {
	in.scanOp = startOp(in.ctx, in.prof, "scan")
	if in.residual != nil {
		in.filterOp = startOp(in.ctx, in.prof, "filter")
	}
}

// readScan reads the scan n whole — cols of its rows, under the names a join
// sees them by — with its own operators: a join's build side.
func readScan(ctx context.Context, db Database, n *plan.Node, cols []string, prof *Profile) (*colstore.Batch, error) {
	def, err := db.TableDef(n.Table)
	if err != nil {
		return nil, err
	}
	segs, err := db.Segments(n.Table)
	if err != nil {
		return nil, err
	}
	in := &input{ctx: ctx, prof: prof, limit: math.MaxInt}
	if err := in.openLeaf(def, segs, n, cols, blockRanges); err != nil {
		return nil, err
	}
	in.startLeafOps()
	in.keepLeaf()
	c := &collector{in: in, out: colstore.NewBatch(in.out)}
	err = in.walk(c) // may replace c.out as it grows
	if err = cmp.Or(err, in.pending); err == nil {
		in.finishOps()
	}
	return c.out, err
}

// keepLeaf makes the columns asked for a range buffer's: a leaf walked alone.
func (in *input) keepLeaf() {
	in.out = in.view[:len(in.cols)] // cols come first among the scanned
	for i := range in.out {
		in.keep = append(in.keep, i)
	}
}

// walk runs every range through the stages on the process pool and hands the
// ranges, in order, to c.
func (in *input) walk(c consumer) error {
	n := len(in.ranges)
	in.openBooks()
	pool := parallel.Default()
	in.degree = max(1, min(pool.Degree(), n))
	ahead := 2 * pool.Degree()
	// The free list holds every buffer the window lets exist at once: the
	// ranges running and those ahead of the oldest one.
	in.ready, in.free = make([]*rangeBuf, n), make(chan *rangeBuf, ahead+pool.Degree())
	consume := in.limit > in.consumeStage()
	// A range buffer is sized once for the largest range a scan can deliver
	// (a join may still outgrow it).
	for _, cur := range in.ranges {
		in.reserve = max(in.reserve, cur.MaxRows())
	}
	t0 := in.prof.now()
	err := pool.Window(n, ahead, func(i int) error {
		r := in.rangeBuf()
		err := in.walkRange(i, r, consume)
		if r.out = r.rows; err == nil && consume && in.eval != nil && r.rows.Len() > 0 {
			r.out, err = in.eval(r.rows)
		}
		if err != nil {
			return err
		}
		return in.publish(i, r, c, consume)
	})
	if err == nil && consume {
		err = c.finish()
	}
	in.wall = in.prof.now() - t0
	return err
}

// rangeBuf returns a buffer for the next range: one a taken range gave back,
// or a new one. Buffers live for one walk only: kept across statements, they
// would pin memory between the allocations of everything else.
func (in *input) rangeBuf() *rangeBuf {
	select {
	case r := <-in.free:
		return r
	default:
	}
	r := &rangeBuf{rows: colstore.NewBatchCap(in.out, in.reserve), view: colstore.Batch{Schema: in.view}}
	for _, j := range in.joins {
		r.mid = append(r.mid, colstore.NewBatch(j.out))
	}
	return r
}

// grow makes room in b for n more rows at once — doubling, so a batch grown
// range by range allocates less than twice its final size.
func grow(b *colstore.Batch, n int) *colstore.Batch {
	c := b.Cols[0]
	have := cap(c.Ints) + cap(c.Floats) + cap(c.Strs) + cap(c.Bools)
	if have >= b.Len()+n {
		return b
	}
	out := colstore.NewBatchCap(b.Schema, max(2*have, b.Len()+n))
	_ = out.AppendBatch(b) // one schema
	return out
}

// recycle gives a taken range's buffer back to the walk.
func (in *input) recycle(r *rangeBuf) {
	r.rows.Reset()
	r.out = nil
	select {
	case in.free <- r:
	default:
	}
}

// walkRange pulls range i's batches through the stages before in.limit and,
// when it consumes, appends the consumer's columns of the surviving rows to
// r.rows.
func (in *input) walkRange(i int, r *rangeBuf, consume bool) error {
	cur := in.ranges[i]
	defer cur.Close()
	if r.cur != nil {
		r.cur.Pass(cur)
	}
	r.cur = cur
	r.t = in.prof.now()
	for {
		_, _, b, sel, err := in.pull(r, 0)
		if err != nil || b == nil {
			return err
		}
		r.view.Cols = b.Cols
		cur := &r.view
		for k, j := range in.joins {
			if in.limit <= stageJoins+k {
				break
			}
			// The last join appends straight to the range's rows when
			// nothing stands between it and the consumer.
			dst := r.mid[k]
			if consume && k == len(in.joins)-1 && in.filter == nil {
				dst = r.rows
			} else {
				dst.Reset()
			}
			n, err := j.probe(in.ctx, cur, sel, dst, r)
			r.t = in.lap(stageJoins+k, r.t, n)
			if err != nil {
				return err
			}
			cur, sel = dst, nil
		}
		if cur == r.rows || in.limit <= in.topStage() {
			continue
		}
		if in.filter != nil {
			if r.idx, err = filterRows(in.filter, cur, r.idx); err != nil {
				return err
			}
			r.t = in.lap(in.topStage(), r.t, len(r.idx))
			if sel = r.idx; len(sel) == 0 {
				continue
			}
		}
		if !consume {
			continue
		}
		for k, c := range in.keep {
			if sel == nil || len(sel) == cur.Len() {
				err = r.rows.Cols[k].AppendVector(cur.Cols[c])
			} else {
				err = r.rows.Cols[k].AppendGather(cur.Cols[c], sel)
			}
			if err != nil {
				return err
			}
		}
		r.t = in.lap(in.consumeStage(), r.t, 0)
	}
}

// pull is a range's scan→residual step: r.cur's next batch holding a row the
// residual keeps, with the kept rows' positions (nil when it keeps them all),
// or nil at the range's end. With maxRows > 0 — only where nothing filters —
// a block row the cursor can hand over stored comes back as its blocks
// instead (ScanCursor.NextStored). The scan and the filter are booked from
// r.t on.
func (in *input) pull(r *rangeBuf, maxRows int) (blocks [][]byte, rows int, b *colstore.Batch, sel []int, err error) {
	for {
		blocks, rows, b, err = r.cur.NextStored(in.ctx, maxRows)
		r.t = in.lap(stageScan, r.t, 0)
		if err != nil || b == nil || in.residual == nil {
			return blocks, rows, b, nil, err
		}
		if r.idx, err = filterRows(in.residual, b, r.idx); err != nil {
			return nil, 0, nil, nil, err
		}
		r.t = in.lap(stageFilter, r.t, len(r.idx))
		if len(r.idx) == b.Len() {
			return nil, 0, b, nil, nil
		}
		if len(r.idx) > 0 {
			return nil, 0, b, r.idx, nil
		}
	}
}

// publish marks range i finished and hands every range whose turn has come
// to c, then runs the work that hands out.
func (in *input) publish(i int, r *rangeBuf, c consumer, consume bool) error {
	var work []func() error
	in.mu.Lock()
	in.ready[i] = r
	for ; in.next < len(in.ready) && in.ready[in.next] != nil; in.next++ {
		r := in.ready[in.next]
		in.ready[in.next] = nil
		if !consume {
			in.recycle(r)
			continue
		}
		t0 := in.prof.now()
		w, err := c.take(r)
		in.lap(in.consumeStage(), t0, 0)
		if err != nil {
			in.mu.Unlock()
			return err
		}
		if w != nil {
			work = append(work, w)
		}
	}
	in.mu.Unlock()
	for _, w := range work {
		if err := w(); err != nil {
			return err
		}
	}
	return nil
}

// finishOps ends the leaf's, the joins' and the top filter's operators with
// their rows and their shares of the walk: each stage's time summed over the
// ranges (or a function's instances), scaled to the walk's wall time, so the
// fused operators still sum to it. It returns the consumer's share.
func (in *input) finishOps() time.Duration {
	var total int64
	for i := range in.busy {
		total += in.busy[i].Load()
	}
	share := func(stage int) time.Duration {
		if total <= 0 {
			return 0
		}
		return time.Duration(float64(in.wall) * float64(in.busy[stage].Load()) / float64(total))
	}
	op, st := in.scanOp, in.stats()
	rows := int64(st.RowsOut)
	if in.scanKept && in.residual != nil {
		rows = in.outRows[stageFilter].Load()
	}
	op.Parallel = in.degree
	op.charge(share(stageScan))
	op.doneScan(st, rows, in.scanDetail(st))
	if op := in.filterOp; op != nil {
		op.charge(share(stageFilter))
		op.Done(in.outRows[stageFilter].Load(), fmt.Sprintf("residual WHERE %s", in.residual.String()))
	}
	for k, j := range in.joins {
		j.op.charge(share(stageJoins + k))
		j.op.Done(in.outRows[stageJoins+k].Load(), fmt.Sprintf("%s = %s, %d build rows", j.node.LeftKey, j.node.RightKey, j.rows.Len()))
	}
	if op := in.topOp; op != nil {
		op.charge(share(in.topStage()))
		op.Done(in.outRows[in.topStage()].Load(), fmt.Sprintf("join filter %s", in.filter.String()))
	}
	return share(in.consumeStage())
}

// stats sums what the leaf's cursors read.
func (in *input) stats() colstore.ScanStats {
	st := in.idle
	for _, c := range in.ranges {
		st.Add(c.Stats())
	}
	return st
}

// collector appends the ranges' outputs to one batch in range order: a
// projection's result, a build side.
type collector struct {
	in  *input
	out *colstore.Batch
}

func (c *collector) take(r *rangeBuf) (func() error, error) {
	var err error
	if r.rows.Len() > 0 {
		c.out = grow(c.out, r.out.Len())
		err = c.out.AppendBatch(r.out)
	}
	c.in.recycle(r)
	return nil, err
}

func (c *collector) finish() error { return nil }

// aggFold is the Aggregate's consumer.
type aggFold struct {
	in                 *input
	plans              []aggItemPlan
	keys               []int           // the GROUP BY columns of a range's rows
	args               []sqlparse.Expr // each item's argument; nil for COUNT(*) and group columns
	keyTypes, outTypes []colstore.Type
	part               *aggPartialAcc // the result, once finished

	// Under the walk's lock.
	open   *aggPartialAcc // the chunk the ranges taken so far end inside
	filled int            // its rows
	chunks int            // chunks begun
	folded map[int]*aggPartialAcc
	merged int // chunks in the tree
	tree   parallel.Tree[*aggPartialAcc]
}

// newAggFold readies the fold of in's rows. The arguments are evaluated over
// no rows first: their types fix the output's, and an argument the engine
// cannot evaluate fails the statement whatever the input holds.
func newAggFold(in *input, sel *sqlparse.Select, plans []aggItemPlan) *aggFold {
	f := &aggFold{in: in, plans: plans, args: make([]sqlparse.Expr, len(plans)), folded: map[int]*aggPartialAcc{}}
	f.tree.Merge = func(a, b *aggPartialAcc) (*aggPartialAcc, error) { return a, a.merge(b) }
	if in.pending != nil {
		return f
	}
	empty := colstore.NewBatch(in.out)
	argTypes := make([]colstore.Type, len(plans))
	for pi, p := range plans {
		if p.fn != nil && !p.fn.Star {
			v, err := evalExpr(p.fn.Args[0], empty)
			if err != nil {
				in.fail(in.consumeStage(), err)
				return f
			}
			f.args[pi], argTypes[pi] = p.fn.Args[0], v.Type
		}
	}
	var err error
	if f.outTypes, err = aggOutputTypes(plans, in.out, argTypes); err != nil {
		in.fail(in.consumeStage(), err)
	}
	for _, g := range sel.GroupBy {
		i := in.out.ColIndex(g)
		f.keys, f.keyTypes = append(f.keys, i), append(f.keyTypes, in.out[i].Type)
	}
	return f
}

// take folds the range's rows that belong to chunks other ranges share — the
// rest of the chunk the ranges before it ended inside, the start of the one
// it ends inside — and returns the folding of the chunks wholly inside it.
func (f *aggFold) take(r *rangeBuf) (func() error, error) {
	n, at := r.rows.Len(), 0
	if f.open != nil {
		at = min(n, aggChunkRows-f.filled)
		f.filled += at
		if err := f.foldRows(f.open, r.rows, 0, at); err != nil {
			return nil, err
		}
		if f.filled == aggChunkRows {
			if err := f.done(f.chunks-1, f.open); err != nil {
				return nil, err
			}
			f.open = nil
		}
	}
	first, full, from := f.chunks, (n-at)/aggChunkRows, at
	f.chunks += full
	if at += full * aggChunkRows; at < n {
		f.open, f.filled = newAggPartialAcc(f.plans, f.keyTypes, f.outTypes), n-at
		f.chunks++
		if err := f.foldRows(f.open, r.rows, at, n); err != nil {
			return nil, err
		}
	}
	if full == 0 {
		f.in.recycle(r)
		return nil, nil
	}
	return func() error {
		t0 := f.in.prof.now()
		parts := make([]*aggPartialAcc, full)
		for c := range parts {
			// Cancellation is honored per chunk.
			if err := verr.Canceled(f.in.ctx.Err()); err != nil {
				return err
			}
			parts[c] = newAggPartialAcc(f.plans, f.keyTypes, f.outTypes)
			if err := f.foldRows(parts[c], r.rows, from+c*aggChunkRows, from+(c+1)*aggChunkRows); err != nil {
				return err
			}
		}
		f.in.lap(f.in.consumeStage(), t0, 0)
		f.in.mu.Lock()
		defer f.in.mu.Unlock()
		f.in.recycle(r)
		for c, p := range parts {
			if err := f.done(first+c, p); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// foldRows folds rows [i, j) of a range's buffer into p, as a fold over the
// whole input folds them.
func (f *aggFold) foldRows(p *aggPartialAcc, rows *colstore.Batch, i, j int) error {
	view := rows.Slice(i, j)
	b := &aggBlock{n: j - i, keys: make([]colstore.BlockCol, len(f.keys)), args: make([]colstore.BlockCol, len(f.args))}
	for k, c := range f.keys {
		b.keys[k].Vals = view.Cols[c]
	}
	for pi, arg := range f.args {
		if arg != nil && b.n > 0 {
			v, err := evalExpr(arg, view)
			if err != nil {
				return err
			}
			b.args[pi].Vals = v
		}
	}
	return p.fold(b)
}

// done files chunk c's partial and merges every filed chunk whose turn has
// come into the tree. Called under the walk's lock.
func (f *aggFold) done(c int, p *aggPartialAcc) error {
	f.folded[c] = p
	for p, ok := f.folded[f.merged]; ok; p, ok = f.folded[f.merged] {
		delete(f.folded, f.merged)
		if err := f.tree.Push(p); err != nil {
			return err
		}
		f.merged++
	}
	return nil
}

func (f *aggFold) finish() error {
	if f.open != nil {
		if err := f.done(f.chunks-1, f.open); err != nil {
			return err
		}
	}
	part, err := f.tree.Result()
	if part == nil { // no rows: no chunk ran
		part = newAggPartialAcc(f.plans, f.keyTypes, f.outTypes)
	}
	part.how = fmt.Sprintf("%d chunks", f.chunks)
	f.part = part
	return err
}

// foldRuns is the run-aware fold, in place of the walk when the Aggregate
// says Runs (no WHERE, no join, every argument a bare column): it drains the
// leaf's ranges serially, in (segment, block) order, through NextBlock and
// folds each block into the one partial — encoded runs where every column is
// RLE or dictionary encoded, so such blocks fold in O(runs). Each group's
// floats add in row order, as the chunked fold's do (foldSum documents why
// folding a run equals iterating it). A block's columns are the consumer's,
// in order.
func (f *aggFold) foldRuns() error {
	in := f.in
	defer func() {
		for _, cur := range in.ranges {
			cur.Close()
		}
	}()
	if in.pending != nil {
		return in.pending
	}
	in.runs, in.degree = true, 1
	in.openBooks()
	f.part = newAggPartialAcc(f.plans, f.keyTypes, f.outTypes)
	b := &aggBlock{keys: make([]colstore.BlockCol, len(f.keys)), args: make([]colstore.BlockCol, len(f.args))}
	runs := 0
	t0 := in.prof.now()
	t := t0
	for i, cur := range in.ranges {
		if i > 0 {
			in.ranges[i-1].Pass(cur)
		}
		blk, err := cur.NextBlock(in.ctx)
		for ; blk != nil; blk, err = cur.NextBlock(in.ctx) {
			t = in.lap(stageScan, t, 0)
			b.n, b.runs = blk.Len(), blk.Runs
			runs += b.n
			for k, c := range f.keys {
				b.keys[k] = blk.Cols[c]
			}
			for pi, arg := range f.args {
				if arg != nil {
					b.args[pi] = blk.Cols[in.out.ColIndex(arg.(*sqlparse.ColRef).Name)]
				}
			}
			if err := f.part.fold(b); err != nil {
				return err
			}
			t = in.lap(in.consumeStage(), t, 0)
		}
		if t = in.lap(stageScan, t, 0); err != nil {
			return err
		}
	}
	in.wall = in.prof.now() - t0
	f.part.how = fmt.Sprintf("%d runs (run-aware)", runs)
	return nil
}

// joinTable is a hash join's build side, read once: its rows and the typed
// key table — dense keyInterner IDs heading int32 row chains, NaN keys aside.
type joinTable struct {
	node       *plan.Node
	rows       *colstore.Batch
	keys       keyInterner
	head, next []int32
	nanBuild   []int
	probeKey   int             // the probe key's column in the entering stream
	out        colstore.Schema // the stream leaving the join, probe side first
	from       []int           // out column k: entering column from[k], or build column -1-from[k]
	op         *opTimer
}

// newJoinTable builds the hash table of n over its build side's rows for a
// stream entering with schema in, carrying on the columns in carry. Key
// equality follows the engine's CompareValues semantics: ints compare
// exactly, mixed int/float widens to float64, ±0.0 coincide, and NaN
// compares equal to everything.
func newJoinTable(n *plan.Node, in colstore.Schema, rows *colstore.Batch, carry map[string]bool) (*joinTable, error) {
	li, ri := in.ColIndex(n.LeftKey), rows.Schema.ColIndex(n.RightKey)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("sqlexec: join keys %s, %s not in scan output", n.LeftKey, n.RightKey)
	}
	lt, rv := in[li].Type, rows.Cols[ri]
	numeric := func(t colstore.Type) bool { return t == colstore.TypeInt64 || t == colstore.TypeFloat64 }
	if lt != rv.Type && !(numeric(lt) && numeric(rv.Type)) {
		return nil, fmt.Errorf("sqlexec: join keys %s (%v) and %s (%v) are not comparable", n.LeftKey, lt, n.RightKey, rv.Type)
	}
	// Two INTEGER keys compare exactly; any FLOAT side compares as float64.
	j := &joinTable{node: n, rows: rows, probeKey: li,
		keys: keyInterner{join: lt == colstore.TypeFloat64 || rv.Type == colstore.TypeFloat64}}
	// Each build row gets its key's dense ID; head[id] starts the chain of
	// that key's rows through next. Chaining the rows in descending order
	// leaves every chain ascending.
	nr := rows.Len()
	ids := make([]int32, nr)
	j.keys.ids(colstore.BlockCol{Vals: rv}, ids, true)
	j.head, j.next = make([]int32, j.keys.len()), make([]int32, nr)
	for i := range j.head {
		j.head[i] = -1
	}
	for b := nr - 1; b >= 0; b-- {
		if id := ids[b]; id != idNaN {
			j.next[b], j.head[id] = j.head[id], int32(b)
		}
	}
	for b, id := range ids {
		if id == idNaN {
			j.nanBuild = append(j.nanBuild, b)
		}
	}
	for f, c := range in {
		if carry[c.Name] {
			j.out, j.from = append(j.out, c), append(j.from, f)
		}
	}
	for f, c := range rows.Schema {
		if carry[c.Name] {
			j.out, j.from = append(j.out, c), append(j.from, -1-f)
		}
	}
	return j, nil
}

// probe joins the rows of in that sel selects (all of them when sel is nil)
// and appends the carried columns of the joined rows to dst, returning how
// many. Matches come out probe-row-major, build-row-ascending — exactly what
// a nested-loop join over the same inputs produces. A NaN build row matches
// every probe row and a NaN probe row every build row.
func (j *joinTable) probe(ctx context.Context, in *colstore.Batch, sel []int, dst *colstore.Batch, r *rangeBuf) (int, error) {
	if err := verr.Canceled(ctx.Err()); err != nil {
		return 0, err
	}
	n := in.Len()
	if cap(r.ids) < n {
		r.ids = make([]int32, n)
	}
	ids := r.ids[:n]
	j.keys.ids(colstore.BlockCol{Vals: in.Cols[j.probeKey]}, ids, false)
	for len(r.seq) < n {
		r.seq = append(r.seq, len(r.seq))
	}
	if sel == nil {
		sel = r.seq[:n]
	}
	nb := j.rows.Len()
	l, m := r.l[:0], r.r[:0]
	for _, i := range sel {
		switch id := ids[i]; {
		case id == idNaN:
			// NaN equals every build row: one probe row emits them all, so
			// cancellation is checked in here too.
			for b := 0; b < nb; b++ {
				if b%aggChunkRows == aggChunkRows-1 {
					if err := verr.Canceled(ctx.Err()); err != nil {
						return 0, err
					}
				}
				l, m = append(l, i), append(m, b)
			}
		case len(j.nanBuild) == 0:
			if id >= 0 {
				for b := j.head[id]; b >= 0; b = j.next[b] {
					l, m = append(l, i), append(m, int(b))
				}
			}
		default:
			// Merge the key's chain with the match-everything NaN build
			// rows, keeping ascending build order.
			b, nan := int32(-1), 0
			if id >= 0 {
				b = j.head[id]
			}
			for b >= 0 || nan < len(j.nanBuild) {
				if b < 0 || (nan < len(j.nanBuild) && j.nanBuild[nan] < int(b)) {
					l, m = append(l, i), append(m, j.nanBuild[nan])
					nan++
				} else {
					l, m = append(l, i), append(m, int(b))
					b = j.next[b]
				}
			}
		}
	}
	r.l, r.r = l, m
	for k, f := range j.from {
		src, rows := in.Cols[max(f, 0)], l
		if f < 0 {
			src, rows = j.rows.Cols[-1-f], m
		}
		if err := dst.Cols[k].AppendGather(src, rows); err != nil {
			return 0, err
		}
	}
	return len(l), nil
}
