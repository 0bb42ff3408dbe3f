package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

// Gen produces random tables and queries. All generated numeric data is
// drawn from small integers and exact half-integers, so every sum a query
// can compute is exact in float64 — the engine's chunked parallel
// accumulation and the reference's row-order loop then agree bitwise, and
// any difference is a real bug rather than float reassociation noise.
//
// The generator deliberately avoids two constructs: "/" (inexact, and the
// engine's int/int division promotes to float in eval order) is only exact
// by accident, and cross-type comparisons beyond the int/float widening the
// engine supports (they error data-dependently). Everything else the engine
// implements is fair game.
type Gen struct {
	rng *rand.Rand
	// quals, when non-empty, qualifies every generated column reference with
	// a randomly chosen table alias. Join queries set it: the two joined
	// tables share a schema, so bare references are ambiguous.
	quals []string
}

// col builds a column reference, qualified when a join scope is active.
func (g *Gen) col(name string) *sqlparse.ColRef {
	if len(g.quals) == 0 {
		return &sqlparse.ColRef{Name: name}
	}
	return &sqlparse.ColRef{Table: g.quals[g.rng.Intn(len(g.quals))], Name: name}
}

// NewGen seeds a generator.
func NewGen(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

// TableSchema is the fixed schema used by generated tables.
func TableSchema() colstore.Schema {
	return colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "a", Type: colstore.TypeInt64},
		{Name: "b", Type: colstore.TypeInt64},
		{Name: "x", Type: colstore.TypeFloat64},
		{Name: "y", Type: colstore.TypeFloat64},
		{Name: "s", Type: colstore.TypeString},
		{Name: "flag", Type: colstore.TypeBool},
	}
}

var genStrings = []string{"red", "green", "blue", "azul", "rot"}

// Table generates a fresh FakeDB with nrows rows spread over 1-3 segments.
func (g *Gen) Table(nrows int) (*FakeDB, error) { return g.NamedTable("t", nrows) }

// NamedTable is Table with a caller-chosen table name (the join harness
// builds a "t"/"u" pair).
func (g *Gen) NamedTable(name string, nrows int) (*FakeDB, error) {
	nsegs := 1 + g.rng.Intn(3)
	blockRows := []int{16, 32, 48}[g.rng.Intn(3)]
	return NewFakeDB(name, TableSchema(), g.genRows(nrows), nsegs, blockRows)
}

// JoinTable is NamedTable plus, one time in three, a sprinkle of adversarial
// floats (NaN, -0.0, +0.0) over x and y. Under the engine's ordering a NaN
// join key compares equal to every value — the hash join routes such rows
// through match-everything side lists, and the nested-loop reference must
// agree row for row.
func (g *Gen) JoinTable(name string, nrows int) (*FakeDB, error) {
	rows := g.genRows(nrows)
	if g.rng.Intn(3) == 0 {
		palette := []float64{math.NaN(), math.Copysign(0, -1), 0.0, 2.5}
		for i := range rows {
			if g.rng.Intn(8) == 0 {
				rows[i][3] = palette[g.rng.Intn(len(palette))]
			}
			if g.rng.Intn(8) == 0 {
				rows[i][4] = palette[g.rng.Intn(len(palette))]
			}
		}
	}
	nsegs := 1 + g.rng.Intn(3)
	blockRows := []int{16, 32, 48}[g.rng.Intn(3)]
	return NewFakeDB(name, TableSchema(), rows, nsegs, blockRows)
}

func (g *Gen) genRows(nrows int) [][]any {
	rows := make([][]any, nrows)
	for i := range rows {
		rows[i] = []any{
			int64(i),
			int64(g.rng.Intn(41) - 20),
			int64(g.rng.Intn(41) - 20),
			float64(g.rng.Intn(201)-100) / 2,
			float64(g.rng.Intn(201)-100) / 2,
			genStrings[g.rng.Intn(len(genStrings))],
			g.rng.Intn(2) == 0,
		}
	}
	return rows
}

// WideningLoads generates two loads of TableSchema rows, first and second
// rows long, ids sequential across both, whose INTEGER keys the second load
// widens: a is in [100, 164) and b in [0, 300) throughout the first load; in
// the second each is drawn from that range, below it, above it (up to three
// widths off) or, one time in 32, from the int64 extremes. A dense key span
// taken from the first load's blocks misses the second's keys on both sides.
func (g *Gen) WideningLoads(first, second int) [][][]any {
	wide := func(lo, n int64) int64 {
		switch k := g.rng.Intn(64); {
		case k == 0:
			return math.MinInt64
		case k == 1:
			return math.MaxInt64
		case k < 22:
			return lo - 1 - g.rng.Int63n(3*n)
		case k < 43:
			return lo + n + g.rng.Int63n(3*n)
		default:
			return lo + g.rng.Int63n(n)
		}
	}
	rows := g.genRows(first + second)
	for i, r := range rows {
		if i < first {
			r[1], r[2] = 100+g.rng.Int63n(64), g.rng.Int63n(300)
		} else {
			r[1], r[2] = wide(100, 64), wide(0, 300)
		}
	}
	return [][][]any{rows[:first], rows[first:]}
}

// WideningQueries are GROUP BY and join statements over two tables t and u
// of WideningLoads rows: one and two INTEGER key columns, run-aware and
// chunked folds, and INTEGER join keys from both loads on either side.
var WideningQueries = []string{
	"SELECT a, count(*) AS n, sum(x) AS sx, min(y) AS my FROM t GROUP BY a",
	"SELECT a, count(*) AS n, sum(x) AS sx, max(s) AS ms FROM t WHERE id >= 0 GROUP BY a",
	"SELECT b, a, count(*) AS n, sum(y) AS sy FROM t GROUP BY b, a",
	"SELECT a, b, count(*) AS n, avg(x) AS ax FROM t WHERE x > -40 GROUP BY a, b",
	"SELECT t.id, u.id AS uid, u.b FROM t JOIN u ON t.a = u.a",
	"SELECT u.b, count(*) AS n, sum(t.x) AS sx FROM t JOIN u ON t.a = u.a GROUP BY u.b",
	"SELECT t.a, count(*) AS n, min(u.y) AS my FROM t JOIN u ON t.b = u.b WHERE u.id < 300 GROUP BY t.a",
	"SELECT u.id, t.id AS tid FROM u JOIN t ON u.b = t.a WHERE t.x > 0",
}

// AdversarialTable generates a FakeDB whose storage is encoding-adversarial
// for the compressed execution path:
//
//   - a holds long integer runs (RLE) whose length is chosen to straddle the
//     sealed-block boundary, so runs split across blocks;
//   - x holds float runs drawn from a palette with NaN, -0.0, +0.0 and exact
//     half-integers — RLE blocks whose zone maps vanish (NaN) and whose
//     values stress bitwise comparison;
//   - y is a large constant per ~block (thousands), so every small query
//     literal either zone-map-skips all blocks or selects everything;
//   - s is either a low-cardinality alternating subset of the query literals
//     plus "" (dictionary encoding; literals outside the subset probe values
//     absent from the dictionary) or long string runs (RLE strings);
//   - b stays incompressible and id sequential (DELTA), so mixed encodings
//     appear in every projection;
//   - flag holds long bool runs.
//
// Tables are split over 1-3 segments without sealing, so unsealed tails are
// always in play. Callers should keep nrows at or below one aggregation
// chunk (4096) so chunked and run-folded MIN/MAX see identical NaN merge
// order.
func (g *Gen) AdversarialTable(nrows int) (*FakeDB, error) {
	blockRows := []int{16, 32, 48}[g.rng.Intn(3)]
	rows := g.adversarialRows(nrows, blockRows)
	nsegs := 1 + g.rng.Intn(3)
	return NewFakeDB("t", TableSchema(), rows, nsegs, blockRows)
}

// adversarialRows generates AdversarialTable's rows for a given block size
// (y steps once per blockRows rows, so its zone maps prune block by block).
func (g *Gen) adversarialRows(nrows, blockRows int) [][]any {
	rl := []int{7, 19, 37}[g.rng.Intn(3)] // run length, straddles every blockRows choice
	xPalette := []float64{math.NaN(), math.Copysign(0, -1), 0.0, 2.5, -7.5, 3}
	sub := append([]string{}, genStrings[:2+g.rng.Intn(2)]...)
	sub = append(sub, "") // empty string sorts before every literal
	dictMode := g.rng.Intn(2) == 0
	rows := make([][]any, nrows)
	for i := range rows {
		var sv string
		if dictMode {
			sv = sub[i%len(sub)] // alternating: dictionary beats RLE
		} else {
			sv = sub[(i/rl)%len(sub)] // long runs: RLE strings
		}
		rows[i] = []any{
			int64(i),
			int64((i/rl)%5 - 2),
			int64(g.rng.Intn(41) - 20),
			xPalette[(i/rl)%len(xPalette)],
			1000 * float64(i/blockRows+1),
			sv,
			(i/rl)%2 == 0,
		}
	}
	return rows
}

var numericCols = []string{"id", "a", "b", "x", "y"}
var intCols = []string{"id", "a", "b"}

func (g *Gen) numericCol() string { return numericCols[g.rng.Intn(len(numericCols))] }

// numExpr builds a numeric expression of bounded depth without division.
func (g *Gen) numExpr(depth int) sqlparse.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return &sqlparse.NumberLit{IsInt: true, Int: int64(g.rng.Intn(21) - 10)}
		default:
			return g.col(g.numericCol())
		}
	}
	if g.rng.Intn(5) == 0 {
		return &sqlparse.Unary{Op: "-", X: g.numExpr(depth - 1)}
	}
	ops := []string{"+", "-", "*"}
	return &sqlparse.Binary{
		Op: ops[g.rng.Intn(len(ops))],
		L:  g.numExpr(depth - 1),
		R:  g.numExpr(depth - 1),
	}
}

// boolExpr builds a WHERE-style predicate of bounded depth. Comparisons only
// mix types the engine can compare (numeric with numeric, string with
// string, bool with bool).
func (g *Gen) boolExpr(depth int) sqlparse.Expr {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(6) {
		case 0:
			return g.col("flag")
		case 1:
			return &sqlparse.Binary{
				Op: "=",
				L:  g.col("flag"),
				R:  &sqlparse.BoolLit{Val: g.rng.Intn(2) == 0},
			}
		case 2:
			return &sqlparse.Binary{
				Op: g.cmpOp(),
				L:  g.col("s"),
				R:  &sqlparse.StringLit{Val: genStrings[g.rng.Intn(len(genStrings))]},
			}
		default:
			return &sqlparse.Binary{
				Op: g.cmpOp(),
				L:  g.numExpr(1),
				R:  g.numExpr(1),
			}
		}
	}
	switch g.rng.Intn(5) {
	case 0:
		return &sqlparse.Unary{Op: "NOT", X: g.boolExpr(depth - 1)}
	case 1:
		return &sqlparse.Binary{Op: "OR", L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1)}
	default:
		return &sqlparse.Binary{Op: "AND", L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1)}
	}
}

func (g *Gen) cmpOp() string {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	return ops[g.rng.Intn(len(ops))]
}

// indexableConjunct emits a `col CMP literal` comparison the planner can
// serve from a zone map or a B-tree index — point and range probes whose
// literals land in (and just outside) the generated value ranges.
func (g *Gen) indexableConjunct(nrows int) sqlparse.Expr {
	switch g.rng.Intn(4) {
	case 0:
		return &sqlparse.Binary{Op: g.cmpOp(), L: g.col("id"),
			R: &sqlparse.NumberLit{IsInt: true, Int: int64(g.rng.Intn(nrows + 2))}}
	case 1:
		c := []string{"a", "b"}[g.rng.Intn(2)]
		return &sqlparse.Binary{Op: g.cmpOp(), L: g.col(c),
			R: &sqlparse.NumberLit{IsInt: true, Int: int64(g.rng.Intn(45) - 22)}}
	case 2:
		c := []string{"x", "y"}[g.rng.Intn(2)]
		return &sqlparse.Binary{Op: g.cmpOp(), L: g.col(c),
			R: &sqlparse.NumberLit{Float: float64(g.rng.Intn(201)-100) / 2}}
	default:
		return &sqlparse.Binary{Op: g.cmpOp(), L: g.col("s"),
			R: &sqlparse.StringLit{Val: genStrings[g.rng.Intn(len(genStrings))]}}
	}
}

// indexableWhere ANDs 1-3 indexable conjuncts at the top level, the shape
// the planner's conjunct analysis pushes to storage as one conjunction and
// the index chooser feeds on.
func (g *Gen) indexableWhere(nrows int) sqlparse.Expr {
	w := g.indexableConjunct(nrows)
	for n := g.rng.Intn(3); n > 0; n-- {
		w = &sqlparse.Binary{Op: "AND", L: w, R: g.indexableConjunct(nrows)}
	}
	return w
}

// aggCall builds one aggregate function call.
func (g *Gen) aggCall() *sqlparse.FuncCall {
	switch g.rng.Intn(6) {
	case 0:
		return &sqlparse.FuncCall{Name: "COUNT", Star: true}
	case 1:
		cols := []string{"id", "a", "x", "s", "flag"}
		return &sqlparse.FuncCall{Name: "COUNT", Args: []sqlparse.Expr{
			g.col(cols[g.rng.Intn(len(cols))]),
		}}
	case 2, 3:
		fn := []string{"SUM", "AVG"}[g.rng.Intn(2)]
		return &sqlparse.FuncCall{Name: fn, Args: []sqlparse.Expr{g.numExpr(1)}}
	default:
		fn := []string{"MIN", "MAX"}[g.rng.Intn(2)]
		var arg sqlparse.Expr
		if g.rng.Intn(4) == 0 {
			arg = g.col("s")
		} else {
			arg = g.col(g.numericCol())
		}
		return &sqlparse.FuncCall{Name: fn, Args: []sqlparse.Expr{arg}}
	}
}

// Query builds a random SELECT over table "t". Roughly half the queries
// aggregate; the rest project. Items always carry cN aliases so ORDER BY
// can reference any of them.
func (g *Gen) Query(nrows int) *sqlparse.Select {
	sel := &sqlparse.Select{From: "t", Limit: -1}
	if g.rng.Intn(10) == 0 {
		sel.Profile = true
	}
	var orderable []string
	if g.rng.Intn(2) == 0 {
		// Aggregate query.
		// x and y put float keys in play: over the NaN/-0.0/+0.0 palettes of
		// JoinTable and AdversarialTable every NaN is one group and the two
		// zeros are two.
		groupPool := []string{"a", "b", "s", "flag", "x", "y"}
		ngroup := g.rng.Intn(3)
		g.rng.Shuffle(len(groupPool), func(i, j int) { groupPool[i], groupPool[j] = groupPool[j], groupPool[i] })
		for _, gc := range groupPool[:ngroup] {
			sel.GroupBy = append(sel.GroupBy, gc)
			alias := fmt.Sprintf("c%d", len(sel.Items))
			sel.Items = append(sel.Items, sqlparse.SelectItem{
				Expr:  &sqlparse.ColRef{Name: gc},
				Alias: alias,
			})
			orderable = append(orderable, alias)
		}
		naggs := 1 + g.rng.Intn(3)
		for i := 0; i < naggs; i++ {
			alias := fmt.Sprintf("c%d", len(sel.Items))
			sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: g.aggCall(), Alias: alias})
			orderable = append(orderable, alias)
		}
	} else if g.rng.Intn(10) == 0 {
		// Star projection, sometimes with extra columns.
		sel.Items = append(sel.Items, sqlparse.SelectItem{Star: true})
		orderable = append(orderable, "id", "a", "s")
		if g.rng.Intn(2) == 0 {
			sel.Items = append(sel.Items, sqlparse.SelectItem{
				Expr:  &sqlparse.ColRef{Name: g.numericCol()},
				Alias: "extra",
			})
			orderable = append(orderable, "extra")
		}
	} else {
		// Expression projection.
		nitems := 1 + g.rng.Intn(4)
		for i := 0; i < nitems; i++ {
			alias := fmt.Sprintf("c%d", len(sel.Items))
			var e sqlparse.Expr
			switch g.rng.Intn(4) {
			case 0:
				e = &sqlparse.ColRef{Name: "s"}
			case 1:
				e = &sqlparse.ColRef{Name: "flag"}
			default:
				e = g.numExpr(2)
			}
			sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: e, Alias: alias})
			orderable = append(orderable, alias)
		}
	}
	if g.rng.Intn(10) < 7 {
		if g.rng.Intn(3) == 0 {
			sel.Where = g.indexableWhere(nrows)
		} else {
			sel.Where = g.boolExpr(1 + g.rng.Intn(3))
		}
	}
	if len(orderable) > 0 && g.rng.Intn(10) < 6 {
		nkeys := 1 + g.rng.Intn(2)
		g.rng.Shuffle(len(orderable), func(i, j int) { orderable[i], orderable[j] = orderable[j], orderable[i] })
		if nkeys > len(orderable) {
			nkeys = len(orderable)
		}
		for _, col := range orderable[:nkeys] {
			sel.OrderBy = append(sel.OrderBy, sqlparse.OrderItem{Col: col, Desc: g.rng.Intn(2) == 0})
		}
	}
	if g.rng.Intn(10) < 3 {
		sel.Limit = g.rng.Intn(nrows + 5)
	}
	return sel
}

// JoinQuery builds a random equi-join SELECT over tables "t" and "u"
// (occasionally under explicit aliases), joining on numeric keys — same-type
// and cross-width int/float pairs, so the hash join's key widening gets
// exercised. Every column reference is qualified: the two tables share a
// schema, so bare names are ambiguous by construction.
func (g *Gen) JoinQuery(lrows, rrows int) *sqlparse.Select {
	lq, uq := "t", "u"
	sel := &sqlparse.Select{From: "t", Limit: -1}
	var joinAlias string
	if g.rng.Intn(3) == 0 {
		lq, uq = "lhs", "rhs"
		sel.FromAlias, joinAlias = lq, uq
	}
	pairs := [][2]string{
		{"a", "a"}, {"a", "b"}, {"b", "a"}, {"id", "a"}, {"id", "id"},
		{"a", "x"}, {"x", "a"}, {"x", "y"}, {"x", "x"},
	}
	kp := pairs[g.rng.Intn(len(pairs))]
	on := &sqlparse.Binary{
		Op: "=",
		L:  &sqlparse.ColRef{Table: lq, Name: kp[0]},
		R:  &sqlparse.ColRef{Table: uq, Name: kp[1]},
	}
	if g.rng.Intn(4) == 0 {
		on.L, on.R = on.R, on.L // either side of the equality may come first
	}
	sel.Joins = []sqlparse.Join{{Table: "u", Alias: joinAlias, On: on}}

	g.quals = []string{lq, uq}
	defer func() { g.quals = nil }()

	var orderable []string
	switch {
	case g.rng.Intn(2) == 0:
		// Aggregate over the join.
		groupPool := []string{lq + ".a", lq + ".s", uq + ".b", uq + ".flag", uq + ".s", lq + ".x", uq + ".y"}
		g.rng.Shuffle(len(groupPool), func(i, j int) { groupPool[i], groupPool[j] = groupPool[j], groupPool[i] })
		for _, gc := range groupPool[:g.rng.Intn(3)] {
			sel.GroupBy = append(sel.GroupBy, gc)
			alias := fmt.Sprintf("c%d", len(sel.Items))
			dot := strings.IndexByte(gc, '.')
			sel.Items = append(sel.Items, sqlparse.SelectItem{
				Expr:  &sqlparse.ColRef{Table: gc[:dot], Name: gc[dot+1:]},
				Alias: alias,
			})
			orderable = append(orderable, alias)
		}
		naggs := 1 + g.rng.Intn(3)
		for i := 0; i < naggs; i++ {
			alias := fmt.Sprintf("c%d", len(sel.Items))
			sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: g.aggCall(), Alias: alias})
			orderable = append(orderable, alias)
		}
	case g.rng.Intn(5) == 0:
		// Star: both tables' columns in scan order, qualified names.
		sel.Items = append(sel.Items, sqlparse.SelectItem{Star: true})
		orderable = append(orderable, lq+".id", uq+".id", lq+".a", uq+".s")
	default:
		// Expression projection mixing both sides.
		nitems := 1 + g.rng.Intn(4)
		for i := 0; i < nitems; i++ {
			alias := fmt.Sprintf("c%d", len(sel.Items))
			var e sqlparse.Expr
			switch g.rng.Intn(4) {
			case 0:
				e = g.col("s")
			case 1:
				e = g.col("flag")
			default:
				e = g.numExpr(2)
			}
			sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: e, Alias: alias})
			orderable = append(orderable, alias)
		}
	}
	if g.rng.Intn(10) < 6 {
		if g.rng.Intn(2) == 0 {
			sel.Where = g.indexableWhere(lrows + rrows)
		} else {
			sel.Where = g.boolExpr(1 + g.rng.Intn(2))
		}
	}
	if len(orderable) > 0 && g.rng.Intn(10) < 6 {
		nkeys := 1 + g.rng.Intn(2)
		g.rng.Shuffle(len(orderable), func(i, j int) { orderable[i], orderable[j] = orderable[j], orderable[i] })
		if nkeys > len(orderable) {
			nkeys = len(orderable)
		}
		for _, col := range orderable[:nkeys] {
			sel.OrderBy = append(sel.OrderBy, sqlparse.OrderItem{Col: col, Desc: g.rng.Intn(2) == 0})
		}
	}
	if g.rng.Intn(10) < 3 {
		sel.Limit = g.rng.Intn(lrows*2 + 5)
	}
	return sel
}
