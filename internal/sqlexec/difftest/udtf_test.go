package difftest

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"verticadr/internal/colstore"
	"verticadr/internal/plan"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
)

// echoTransform emits its input columns unchanged, batch by batch: whatever
// the reader hands it must be whole and in order while it is held.
type echoTransform struct{}

func (echoTransform) OutputSchema(in colstore.Schema, _ udf.Params) (colstore.Schema, error) {
	return in, nil
}

func (echoTransform) ProcessPartition(_ *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	for {
		b, err := in.Next()
		if err != nil || b == nil {
			return err
		}
		if err := out.Write(b); err != nil {
			return err
		}
	}
}

// mixTransform is row-wise: one INTEGER per input row, folding the bits of
// every argument — NaN payloads and the sign of zero included, no float
// arithmetic to reassociate.
type mixTransform struct{}

func (mixTransform) OutputSchema(colstore.Schema, udf.Params) (colstore.Schema, error) {
	return colstore.Schema{{Name: "mix", Type: colstore.TypeInt64}}, nil
}

func (mixTransform) ProcessPartition(_ *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	ob := &colstore.Batch{
		Schema: colstore.Schema{{Name: "mix", Type: colstore.TypeInt64}},
		Cols:   []*colstore.Vector{colstore.NewVector(colstore.TypeInt64, 0)},
	}
	for {
		b, err := in.Next()
		if err != nil || b == nil {
			return err
		}
		ob.Reset()
		for r := 0; r < b.Len(); r++ {
			ob.Cols[0].Ints = append(ob.Cols[0].Ints, mixRow(b.Row(r)))
		}
		if err := out.Write(ob); err != nil {
			return err
		}
	}
}

func mixRow(vals []any) int64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		var x uint64
		switch v := v.(type) {
		case int64:
			x = uint64(v)
		case float64:
			x = math.Float64bits(v)
		case string:
			for _, c := range []byte(v) {
				x = x*131 + uint64(c)
			}
			x += uint64(len(v)) << 56
		case bool:
			if v {
				x = 1
			}
		}
		h = (h ^ x) * 1099511628211
	}
	return int64(h)
}

// udtfLayout places rows on nodes and decides what is sealed.
type udtfLayout struct {
	name  string
	nodes int
	// skip leaves these nodes empty.
	skip map[int]bool
	// seal: "none" leaves whatever a plain Append leaves (full blocks sealed,
	// the remainder in the tail), "all" seals every tail, "mid" seals after
	// the first half of a node's rows so a short block sits mid-segment.
	seal string
}

// udtfTable builds the FakeDB for a layout: contiguous row ranges per node,
// so segment order is source-row order.
func udtfTable(rows [][]any, blockRows int, l udtfLayout) (*FakeDB, error) {
	db, err := NewFakeDB("t", TableSchema(), nil, l.nodes, blockRows)
	if err != nil {
		return nil, err
	}
	live := 0
	for n := 0; n < l.nodes; n++ {
		if !l.skip[n] {
			live++
		}
	}
	per, lo := (len(rows)+live-1)/max(live, 1), 0
	for n, seg := range db.Segs {
		if l.skip[n] {
			continue
		}
		hi := min(lo+per, len(rows))
		part := rows[lo:hi]
		lo = hi
		cuts := []int{len(part)}
		if l.seal == "mid" {
			cuts = []int{len(part) / 2, len(part)}
		}
		from := 0
		for i, to := range cuts {
			if to > from {
				b := colstore.NewBatch(TableSchema())
				for _, r := range part[from:to] {
					if err := b.AppendRow(r...); err != nil {
						return nil, err
					}
				}
				if err := seg.Append(b); err != nil {
					return nil, err
				}
			}
			if l.seal == "all" || (l.seal == "mid" && i == 0) {
				if err := seg.Seal(); err != nil {
					return nil, err
				}
			}
			from = to
		}
	}
	return db, nil
}

// udtfReference is the row-serial answer: every segment read whole in node
// order, each row through WHERE and then the argument expressions, one at a
// time.
func udtfReference(db *FakeDB, where sqlparse.Expr, args []sqlparse.Expr) (kept [][]any, err error) {
	schema := db.Def.Schema
	for _, seg := range db.Segs {
		all, err := seg.ReadAll(nil)
		if err != nil {
			return nil, err
		}
		for r := 0; r < all.Len(); r++ {
			row := all.Row(r)
			if where != nil {
				v, err := evalRow(where, schema, row)
				if err != nil {
					return nil, err
				}
				if keep, ok := v.(bool); !ok || !keep {
					continue
				}
			}
			vals := make([]any, len(args))
			for i, a := range args {
				if vals[i], err = evalRow(a, schema, row); err != nil {
					return nil, err
				}
			}
			kept = append(kept, vals)
		}
	}
	return kept, nil
}

// TestDifferentialUDTFStream is the streamed-UDTF leg: an echo transform and
// a row-wise one under PARTITION BEST — every instance pulling its own block
// range — against the row-serial reference, bitwise, over the adversarial
// generator's RLE / dictionary / NaN / -0.0 shapes x WHERE shapes (none,
// one pushed predicate, a pushed conjunction, residual only) x block
// sizes x instance counts x storage layouts (tail only, sealed only, both, a
// short block mid-segment, empty nodes, more instances than blocks). Where
// PARTITION BEST cuts is the planner's choice; a row-wise function's answer
// may not depend on it.
func TestDifferentialUDTFStream(t *testing.T) {
	gen := NewGen(2323)
	sizes := []int{0, 5, 100, 701}
	blockSizes := []int{8, 2048}
	instances := []int{1, 2, 4, 7}
	layouts := []udtfLayout{
		{name: "both", nodes: 3, seal: "none"},
		{name: "sealed", nodes: 3, seal: "all"},
		{name: "mid", nodes: 2, seal: "mid"},
		{name: "empty-nodes", nodes: 4, skip: map[int]bool{0: true, 2: true}, seal: "none"},
		{name: "one-node", nodes: 1, seal: "all"},
	}
	if *shortRun {
		sizes = []int{0, 100, 701}
		instances = []int{1, 4, 7}
	}
	argLists := []string{"id, a, x, s, flag", "x", "a + b, x * 2, y"}
	var queries, nonEmpty, withConj, residualOnly, tailOnly, multiRange int
	for _, nrows := range sizes {
		for _, blockRows := range blockSizes {
			rows := gen.adversarialRows(nrows, blockRows)
			for _, layout := range layouts {
				db, err := udtfTable(rows, blockRows, layout)
				if err != nil {
					t.Fatal(err)
				}
				for _, fn := range []string{"Echo", "Mix"} {
					f := func() udf.Transform { return echoTransform{} }
					if fn == "Mix" {
						f = func() udf.Transform { return mixTransform{} }
					}
					if err := db.UDFs().Register(fn, f); err != nil {
						t.Fatal(err)
					}
				}
				wheres := []sqlparse.Expr{
					nil,
					gen.indexableConjunct(nrows + 1),
					gen.indexableWhere(nrows + 1),
					&sqlparse.Binary{Op: "AND",
						L: &sqlparse.Binary{Op: ">=", L: gen.col("id"), R: &sqlparse.NumberLit{IsInt: true, Int: int64(nrows / 3)}},
						R: &sqlparse.Binary{Op: "<", L: gen.col("y"), R: &sqlparse.NumberLit{Float: 1000 * float64(nrows/blockRows/2+2)}}},
					gen.boolExpr(2),
					&sqlparse.Binary{Op: "OR", L: gen.indexableConjunct(nrows + 1), R: gen.boolExpr(1)},
				}
				for wi, where := range wheres {
					fn := []string{"Echo", "Mix"}[(wi+nrows)%2]
					args := argLists[(wi+blockRows)%len(argLists)]
					sql := fmt.Sprintf("SELECT %s(%s) OVER (PARTITION BEST) FROM t", fn, args)
					if where != nil {
						sql += " WHERE " + where.String()
					}
					stmt, err := sqlparse.Parse(sql)
					if err != nil {
						t.Fatalf("generated SQL %q failed to parse: %v", sql, err)
					}
					sel := stmt.(*sqlparse.Select)
					fc := sel.Items[0].Expr.(*sqlparse.FuncCall)
					kept, refErr := udtfReference(db, sel.Where, fc.Args)
					p, planErr := plan.Build(sel, db)
					if refErr == nil && planErr != nil {
						t.Fatalf("%q: plan: %v", sql, planErr)
					}
					for _, k := range instances {
						db.Instances = k
						id := fmt.Sprintf("%s rows=%d block=%d k=%d %q", layout.name, nrows, blockRows, k, sql)
						prof := *sel
						prof.Profile = true
						res, engErr := sqlexec.RunSelectCtx(context.Background(), db, &prof)
						if (refErr != nil) != (engErr != nil) {
							t.Fatalf("%s: error mismatch\n  reference: %v\n  engine:    %v", id, refErr, engErr)
						}
						if refErr != nil {
							continue
						}
						queries++
						want := kept
						if fn == "Mix" {
							want = make([][]any, len(kept))
							for i, vals := range kept {
								want[i] = []any{mixRow(vals)}
							}
						}
						got := res.Rows()
						if len(got) != len(want) {
							t.Fatalf("%s: %d rows, reference %d", id, len(got), len(want))
						}
						for ri := range want {
							for ci := range want[ri] {
								if !valuesIdentical(got[ri][ci], want[ri][ci]) {
									t.Fatalf("%s: row %d col %d is %#v, reference %#v", id, ri, ci, got[ri][ci], want[ri][ci])
								}
							}
						}
						if len(want) > 0 {
							nonEmpty++
						}
						// A residual is the leaf's filter stage: its line
						// sits between the scan and the function.
						wantOps := "scan udtf"
						if p.Root.Children[0].Access.Residual != nil {
							wantOps = "scan filter udtf"
						}
						var ops []string
						for _, op := range res.Profile.Ops() {
							ops = append(ops, op.Op)
							switch op.Op {
							case "filter":
								if op.Rows != int64(len(kept)) {
									t.Fatalf("%s: filter operator reports %d rows, reference kept %d", id, op.Rows, len(kept))
								}
							case "scan":
								if op.Rows != int64(len(kept)) {
									t.Fatalf("%s: scan operator reports %d rows, reference kept %d", id, op.Rows, len(kept))
								}
								if op.Blocks == 0 && len(kept) > 0 {
									tailOnly++
								}
							case "udtf":
								if op.Partitions > len(db.Segs) {
									multiRange++
								}
								if op.Partitions < 1 || op.Partitions > k*len(db.Segs) {
									t.Fatalf("%s: %d partitions, want 1..%d", id, op.Partitions, k*len(db.Segs))
								}
							}
						}
						if got := strings.Join(ops, " "); got != wantOps {
							t.Fatalf("%s: operators %s, want %s", id, got, wantOps)
						}
					}
					if refErr == nil {
						acc := p.Root.Children[0].Access
						if len(acc.Preds) > 1 {
							withConj++
						}
						if len(acc.Preds) == 0 && acc.Residual != nil {
							residualOnly++
						}
						assertProfileIsPlan(t, db, sel)
					}
				}
			}
		}
	}
	if nonEmpty == 0 || withConj == 0 || residualOnly == 0 || tailOnly == 0 || multiRange == 0 {
		t.Fatalf("coverage hole: %d non-empty, %d with a pushed conjunction, %d residual-only, %d tail-only, %d with several ranges a node",
			nonEmpty, withConj, residualOnly, tailOnly, multiRange)
	}
	t.Logf("ran %d statements: %d non-empty, %d plans with a pushed conjunction, %d residual-only, %d tail-only scans, %d with several ranges a node",
		queries, nonEmpty, withConj, residualOnly, tailOnly, multiRange)
}
