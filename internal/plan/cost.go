package plan

import (
	"cmp"
	"math"
	"slices"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

// Costing: cardinality estimates come from colstore block statistics only —
// zone-map ranges, block row counts, and NDV read off dictionary and RLE
// headers (exact when a B-tree index is attached). Selectivity folds the
// classic System-R defaults: 1/NDV for equality, linear range fraction for
// inequalities, 1/3 when the engine knows nothing.

const (
	// defaultSel is the selectivity of a predicate the statistics cannot
	// size (non-pushable conjuncts, range predicates without zone stats).
	defaultSel = 1.0 / 3
	// indexSelThreshold gates the index path: an index scan wins only when
	// its predicate keeps at most this fraction of the table, since gather
	// pays per-block decode for every touched block while a full scan
	// streams them.
	indexSelThreshold = 0.25
)

// tableStats aggregates per-segment statistics for one table.
type tableStats struct {
	rows   int
	schema colstore.Schema
	segs   []*colstore.Segment
	cache  map[string]colstore.ColumnStats
}

// gatherStats reads a table's statistics and records the table among the
// plan's Tables.
func (b *builder) gatherStats(table string, def *catalog.TableDef) (*tableStats, error) {
	segs, err := b.src.Segments(table)
	if err != nil {
		return nil, err
	}
	ts := &tableStats{schema: def.Schema, segs: segs, cache: map[string]colstore.ColumnStats{}}
	ts.rows = rowCount(segs)
	if !slices.ContainsFunc(b.tables, func(t Planned) bool { return t.Name == table }) {
		b.tables = append(b.tables, Planned{Name: table, Schema: def.Schema, Rows: ts.rows})
	}
	return ts, nil
}

func rowCount(segs []*colstore.Segment) int {
	rows := 0
	for _, s := range segs {
		rows += s.Rows()
	}
	return rows
}

// colStats merges the column's per-segment statistics: rows sum, ranges
// union (ignoring empty segments), and NDV as the per-segment maximum —
// segmentation spreads one value domain across nodes, so distincts overlap
// rather than add.
func (ts *tableStats) colStats(col string) colstore.ColumnStats {
	if st, ok := ts.cache[col]; ok {
		return st
	}
	var out colstore.ColumnStats
	first := true
	for _, s := range ts.segs {
		if s.Rows() == 0 {
			continue
		}
		st, err := s.ColumnStats(col)
		if err != nil {
			continue
		}
		out.Rows += st.Rows
		if st.NDV > out.NDV {
			out.NDV = st.NDV
		}
		if first {
			out.HasRange, out.Min, out.Max = st.HasRange, st.Min, st.Max
			first = false
			continue
		}
		if !st.HasRange {
			out.HasRange = false
		} else if out.HasRange {
			out.Min = math.Min(out.Min, st.Min)
			out.Max = math.Max(out.Max, st.Max)
		}
	}
	ts.cache[col] = out
	return out
}

// indexed reports whether every segment has a B-tree index on the column —
// the DDL path builds per node, so a half-indexed table only occurs
// mid-recovery, and the planner then declines the index path.
func (ts *tableStats) indexed(col string) bool {
	if len(ts.segs) == 0 {
		return false
	}
	for _, s := range ts.segs {
		if s.Index(col) == nil {
			return false
		}
	}
	return true
}

// mirror is a comparison with its operands swapped.
var mirror = map[colstore.CompareOp]colstore.CompareOp{
	colstore.OpEQ: colstore.OpEQ, colstore.OpNE: colstore.OpNE,
	colstore.OpLT: colstore.OpGT, colstore.OpLE: colstore.OpGE,
	colstore.OpGT: colstore.OpLT, colstore.OpGE: colstore.OpLE,
}

// predFromExpr converts `col OP literal` (or `literal OP col`, mirrored)
// into a storage predicate; any other shape returns nil and stays a residual
// filter. Qualifiers must already be stripped.
func predFromExpr(e sqlparse.Expr) *colstore.Pred {
	p, _ := comparison(e, sqlparse.Literal)
	return p
}

// slotPred converts `col OP ?` (or `? OP col`) into a template's storage
// predicate: no value, and the placeholder's argument slot. bound reports a
// `col OP -?`, which only its bound value makes a literal.
func slotPred(e sqlparse.Expr) (p *colstore.Pred, slot int, bound bool) {
	p, ph := comparison(e, func(v sqlparse.Expr) (any, bool) {
		switch x := v.(type) {
		case *sqlparse.Placeholder:
			return x, true
		case *sqlparse.Unary:
			_, minus := x.X.(*sqlparse.Placeholder)
			bound = bound || minus && x.Op == "-"
		}
		return nil, false
	})
	if p == nil {
		return nil, -1, bound
	}
	p.Val = nil
	return p, ph.(*sqlparse.Placeholder).Idx, false
}

// comparison converts `col OP v` (or `v OP col`, mirrored) into a storage
// predicate when value accepts v, returning the value it made of v.
func comparison(e sqlparse.Expr, value func(sqlparse.Expr) (any, bool)) (*colstore.Pred, any) {
	bin, ok := e.(*sqlparse.Binary)
	if !ok {
		return nil, nil
	}
	op, ok := colstore.ParseCompareOp(bin.Op)
	if !ok {
		return nil, nil
	}
	if col, okc := bin.L.(*sqlparse.ColRef); okc && col.Table == "" {
		if v, okl := value(bin.R); okl {
			return &colstore.Pred{Col: col.Name, Op: op, Val: v}, v
		}
	}
	if col, okc := bin.R.(*sqlparse.ColRef); okc && col.Table == "" {
		if v, okl := value(bin.L); okl {
			return &colstore.Pred{Col: col.Name, Op: mirror[op], Val: v}, v
		}
	}
	return nil, nil
}

func numericVal(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		if math.IsNaN(x) {
			return 0, false
		}
		return x, true
	}
	return 0, false
}

func clampSel(s float64) float64 {
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// predSelectivity estimates the fraction of rows a predicate keeps.
func predSelectivity(p *colstore.Pred, st colstore.ColumnStats) float64 {
	if st.Rows == 0 {
		return 1
	}
	eqSel := defaultSel
	if st.NDV > 0 {
		eqSel = 1 / float64(st.NDV)
	}
	switch p.Op {
	case colstore.OpEQ:
		return clampSel(eqSel)
	case colstore.OpNE:
		return clampSel(1 - eqSel)
	case colstore.OpLT, colstore.OpLE, colstore.OpGT, colstore.OpGE:
		v, ok := numericVal(p.Val)
		if !ok || !st.HasRange || !(st.Max > st.Min) {
			return defaultSel
		}
		frac := (v - st.Min) / (st.Max - st.Min)
		if p.Op == colstore.OpGT || p.Op == colstore.OpGE {
			frac = 1 - frac
		}
		return clampSel(frac)
	}
	return defaultSel
}

// rangeSelectivity estimates the kept fraction of `lo AND hi` over one
// column from its zone-map range — the bounds' overlap with [Min, Max] —
// falling back to the product of the individual estimates when the
// statistics cannot size the interval (string bounds, no range stats).
func rangeSelectivity(lo, hi *colstore.Pred, st colstore.ColumnStats) float64 {
	lv, lok := numericVal(lo.Val)
	hv, hok := numericVal(hi.Val)
	if !lok || !hok || !st.HasRange || !(st.Max > st.Min) {
		return clampSel(predSelectivity(lo, st) * predSelectivity(hi, st))
	}
	return clampSel((hv - lv) / (st.Max - st.Min))
}

// conj is one analyzed WHERE conjunct: the expression, its storage predicate
// when pushable — comparing with argument slot, or with a literal when slot
// is -1 — and its estimated selectivity. bound marks a conjunct only a bound
// value makes pushable.
type conj struct {
	expr  sqlparse.Expr
	pred  *colstore.Pred
	slot  int
	typ   colstore.Type
	bound bool
	sel   float64
}

// analyzeConjuncts pushes a `col OP literal` conjunct only when its literal
// compares with the column: one that does not stays in the residual, whose
// evaluation over no rows fails the statement whatever the table holds. A
// template's `col OP ?` is pushed as if its argument will compare, which
// Plan.Bind checks.
func analyzeConjuncts(where sqlparse.Expr, ts *tableStats) []conj {
	exprs := flattenAnd(where)
	out := make([]conj, 0, len(exprs))
	for _, e := range exprs {
		c := conj{expr: e, slot: -1, sel: defaultSel}
		p := predFromExpr(e)
		slot := -1
		if p == nil {
			p, slot, c.bound = slotPred(e)
		}
		if p != nil {
			if i := ts.schema.ColIndex(p.Col); i >= 0 && (slot >= 0 || colstore.CheckComparable(ts.schema[i].Type, colstore.ValueType(p.Val)) == nil) {
				c.pred, c.slot, c.typ = p, slot, ts.schema[i].Type
				c.sel = predSelectivity(p, ts.colStats(p.Col))
			}
		}
		out = append(out, c)
	}
	return out
}

// chooseAccess picks the access path for one table given its conjuncts:
// every pushable conjunct goes to storage, most selective first, behind the
// probe of a B-tree index scan when the most selective index-eligible
// predicate (or bounded range) keeps under indexSelThreshold of the rows.
// The rest is the residual. The combined selectivity of all conjuncts is
// returned for cardinality estimation.
func chooseAccess(conjs []conj, ts *tableStats, noIndex bool) (*Access, float64) {
	combined := 1.0
	var pushed []int
	var rest []sqlparse.Expr
	for i, c := range conjs {
		combined *= c.sel
		if c.pred != nil {
			pushed = append(pushed, i)
		} else {
			rest = append(rest, c.expr)
		}
	}
	// Stable: among equal estimates conjunct order decides, so plans are
	// deterministic.
	slices.SortStableFunc(pushed, func(a, b int) int { return cmp.Compare(conjs[a].sel, conjs[b].sel) })
	acc := &Access{Residual: rebuildAnd(rest)}
	var probe []int
	if !noIndex {
		if probe, combined = indexProbe(conjs, ts, combined); len(probe) > 0 {
			acc.IndexCol, acc.Probe = conjs[probe[0]].pred.Col, len(probe)
		}
	}
	templ := slices.ContainsFunc(conjs, func(c conj) bool { return c.slot >= 0 })
	add := func(c conj) {
		acc.Preds = append(acc.Preds, *c.pred)
		if templ {
			acc.Slots, acc.types = append(acc.Slots, c.slot), append(acc.types, c.typ)
		}
	}
	for _, i := range probe {
		add(conjs[i])
	}
	for _, i := range pushed {
		if !slices.Contains(probe, i) {
			add(conjs[i])
		}
	}
	return acc, combined
}

// indexProbe picks the conjuncts an index scan would probe with — the most
// selective index-eligible one, or a lower and an upper bound on one indexed
// column — or none when no probe keeps under indexSelThreshold of the rows.
// It returns them with the combined selectivity the choice implies.
func indexProbe(conjs []conj, ts *tableStats, combined float64) ([]int, float64) {
	best := -1
	for i, c := range conjs {
		if c.pred == nil || c.pred.Op == colstore.OpNE || !ts.indexed(c.pred.Col) {
			continue
		}
		if c.sel > indexSelThreshold {
			continue
		}
		if best < 0 || c.sel < conjs[best].sel {
			best = i
		}
	}
	// Bounded ranges: a lower and an upper bound on the same indexed column
	// combine into one index range probe, sized by the interval's overlap
	// with the zone-map range — two individually unselective half-ranges
	// (a >= lo AND a < hi) often pin a narrow window.
	bestLo, bestHi, bestRangeSel := -1, -1, 0.0
	lower := map[string]int{}
	upper := map[string]int{}
	for i, c := range conjs {
		if c.pred == nil || !ts.indexed(c.pred.Col) {
			continue
		}
		switch c.pred.Op {
		case colstore.OpGT, colstore.OpGE:
			if j, ok := lower[c.pred.Col]; !ok || c.sel < conjs[j].sel {
				lower[c.pred.Col] = i
			}
		case colstore.OpLT, colstore.OpLE:
			if j, ok := upper[c.pred.Col]; !ok || c.sel < conjs[j].sel {
				upper[c.pred.Col] = i
			}
		}
	}
	for i, c := range conjs { // conjunct order, not map order: plans must be deterministic
		if c.pred == nil {
			continue
		}
		col := c.pred.Col
		if li, ok := lower[col]; !ok || li != i {
			continue
		}
		ui, ok := upper[col]
		if !ok {
			continue
		}
		sel := rangeSelectivity(conjs[i].pred, conjs[ui].pred, ts.colStats(col))
		if sel > indexSelThreshold {
			continue
		}
		if bestLo < 0 || sel < bestRangeSel {
			bestLo, bestHi, bestRangeSel = i, ui, sel
		}
	}
	if bestLo >= 0 && (best < 0 || bestRangeSel < conjs[best].sel) {
		// Cardinality: the interval estimate replaces the two bounds'
		// independent products — `x >= lo AND x < hi` is one window, not
		// two coin flips.
		pairCombined := bestRangeSel
		for i, c := range conjs {
			if i != bestLo && i != bestHi {
				pairCombined *= c.sel
			}
		}
		return []int{bestLo, bestHi}, clampSel(pairCombined)
	}
	if best >= 0 {
		return []int{best}, combined
	}
	return nil, combined
}

// estimateRows converts a selectivity into an output-row estimate, never
// rounding a nonzero estimate down to zero.
func estimateRows(rows int, sel float64) int64 {
	if rows <= 0 {
		return 0
	}
	est := int64(math.Round(float64(rows) * clampSel(sel)))
	if est == 0 && sel > 0 {
		est = 1
	}
	return est
}

// estimateGroups sizes an aggregation's output: the product of the group-by
// columns' NDVs, capped by the input estimate. A global aggregate is one row.
func estimateGroups(groupBy []string, ndv func(col string) int, inEst int64) int64 {
	if len(groupBy) == 0 {
		return 1
	}
	est := int64(1)
	for _, g := range groupBy {
		n := ndv(g)
		if n <= 0 {
			n = 1
		}
		if est > inEst/int64(n)+1 {
			est = inEst // avoid overflow; cap applies below anyway
			break
		}
		est *= int64(n)
	}
	if est > inEst {
		est = inEst
	}
	if est < 1 {
		est = 1
	}
	return est
}

// estimateJoin sizes an equi-join: |L| * |R| / max(NDV(lk), NDV(rk)).
func estimateJoin(lEst, rEst int64, lNDV, rNDV int) int64 {
	d := lNDV
	if rNDV > d {
		d = rNDV
	}
	if d <= 0 {
		d = 1
	}
	est := int64(math.Round(float64(lEst) * float64(rEst) / float64(d)))
	if est < 1 && lEst > 0 && rEst > 0 {
		est = 1
	}
	return est
}
