package difftest

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/colstore"
	"verticadr/internal/parallel"
	"verticadr/internal/sqlexec"
	"verticadr/internal/sqlparse"
	"verticadr/internal/udf"
)

// glmTransform scores its FLOAT arguments with a binomial GLM through the
// block scorer in-database prediction uses, reading the delivered columns
// as they come.
type glmTransform struct{}

func (glmTransform) OutputSchema(colstore.Schema, udf.Params) (colstore.Schema, error) {
	return colstore.Schema{{Name: "p", Type: colstore.TypeFloat64}}, nil
}

func (glmTransform) ProcessPartition(_ *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	ob := &colstore.Batch{Schema: colstore.Schema{{Name: "p", Type: colstore.TypeFloat64}}, Cols: []*colstore.Vector{colstore.NewVector(colstore.TypeFloat64, 0)}}
	for {
		b, err := in.Next()
		if err != nil || b == nil {
			return err
		}
		cols := make([][]float64, len(b.Cols))
		for i, c := range b.Cols {
			cols[i] = c.Floats
		}
		m := &algos.GLMModel{Family: algos.Binomial, Coefficients: make([]float64, len(cols)+1)}
		for j := range m.Coefficients {
			m.Coefficients[j] = 0.25 * float64(j%5-2)
		}
		ob.Cols[0].Floats = make([]float64, b.Len())
		m.PredictBlock(cols, ob.Cols[0].Floats)
		if err := out.Write(ob); err != nil {
			return err
		}
	}
}

// storageSum checksums every sealed block and every tail row of db's
// segments, read through the stored-block walk, and counts the PLAIN INTEGER
// and FLOAT blocks it met.
func storageSum(t *testing.T, dbs ...*FakeDB) (sum uint32, plainInts, plainFloats int) {
	t.Helper()
	h := crc32.NewIEEE()
	for _, db := range dbs {
		for _, seg := range db.Segs {
			curs, err := seg.ScanCursors(nil, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			for {
				blocks, _, b, err := curs[0].NextStored(context.Background(), math.MaxInt)
				if err != nil {
					t.Fatal(err)
				}
				if blocks == nil && b == nil {
					break
				}
				for _, blk := range blocks {
					h.Write(blk)
					if colstore.Encoding(blk[1]) == colstore.EncPlain {
						switch colstore.Type(blk[0]) {
						case colstore.TypeInt64:
							plainInts++
						case colstore.TypeFloat64:
							plainFloats++
						}
					}
				}
				if b != nil {
					for _, v := range b.Cols {
						data, err := colstore.EncodeBlock(v, colstore.EncPlain)
						if err != nil {
							t.Fatal(err)
						}
						h.Write(data)
					}
				}
			}
			curs[0].Close()
		}
	}
	return h.Sum32(), plainInts, plainFloats
}

// plainRows is the generator's rows with b spread over 2^24 times its range,
// so its sealed blocks are PLAIN INTEGER beside x's and y's PLAIN FLOAT ones.
func plainRows(g *Gen, n int) [][]any {
	rows := g.genRows(n)
	for _, r := range rows {
		r[2] = r[2].(int64) << 24
	}
	return rows
}

// A scan hands out PLAIN numeric blocks in place, so no statement may write
// what it reads: the generator's single-table (aggregates among them), join
// and streamed-UDTF statements — a GLM scorer among the functions — run at
// degrees 1, 2 and 4 over tables with PLAIN INTEGER and FLOAT blocks, and
// every sealed block and tail row checksums the same before and after.
func TestScansNeverWriteStorage(t *testing.T) {
	defer parallel.SetDefaultDegree(0)
	gen := NewGen(4242)
	// Statement runs tried and run to the end, per phase: a generated
	// statement may fail on these values (b's products overflow) before it
	// scans anything, so each phase must show runs that read their blocks.
	tried, ran := map[string]int{}, map[string]int{}
	run := func(phase string, db sqlexec.Database, sel *sqlparse.Select) (err error) {
		for _, deg := range diffDegrees {
			parallel.SetDefaultDegree(deg)
			tried[phase]++
			if _, err = sqlexec.RunSelectCtx(context.Background(), db, sel); err == nil {
				ran[phase]++
			}
		}
		return err
	}
	check := func(label string, before uint32, dbs ...*FakeDB) {
		t.Helper()
		if after, _, _ := storageSum(t, dbs...); after != before {
			t.Fatalf("%s: storage checksum %08x after, %08x before", label, after, before)
		}
	}
	var ints, floats int
	for ti, n := range []int{60, 200, 400} {
		db, err := NewFakeDB("t", TableSchema(), plainRows(gen, n), 1+ti, 16)
		if err != nil {
			t.Fatal(err)
		}
		if ti%2 == 0 {
			if err := db.BuildIndexes("id", "a", "x", "s"); err != nil {
				t.Fatal(err)
			}
		}
		before, pi, pf := storageSum(t, db)
		ints, floats = ints+pi, floats+pf
		for q := 0; q < 40; q++ {
			sel := gen.Query(n)
			run("single-table", db, sel)
			check(sel.String(), before, db)
		}

		u, err := NewFakeDB("u", TableSchema(), plainRows(gen, n/2), 2, 32)
		if err != nil {
			t.Fatal(err)
		}
		uBefore, _, _ := storageSum(t, u)
		for q := 0; q < 20; q++ {
			sel := gen.JoinQuery(n, n/2)
			run("join", NewMultiDB(db, u), sel)
			check(sel.String(), before, db)
			check(sel.String(), uBefore, u)
		}
	}
	rows := plainRows(gen, 701)
	for _, layout := range []udtfLayout{{name: "both", nodes: 3, seal: "none"}, {name: "mid", nodes: 2, seal: "mid"}} {
		db, err := udtfTable(rows, 64, layout)
		if err != nil {
			t.Fatal(err)
		}
		for fn, f := range map[string]func() udf.Transform{
			"Echo": func() udf.Transform { return echoTransform{} },
			"Glm":  func() udf.Transform { return glmTransform{} },
		} {
			if err := db.UDFs().Register(fn, f); err != nil {
				t.Fatal(err)
			}
		}
		before, pi, pf := storageSum(t, db)
		ints, floats = ints+pi, floats+pf
		for _, where := range []string{"", " WHERE id >= 100", " WHERE x > 0 AND b < 0", " WHERE x + y > 3"} {
			for _, call := range []string{"Glm(x, y)", "Echo(id, b, x, s)"} {
				sql := fmt.Sprintf("SELECT %s OVER (PARTITION BEST) FROM t%s", call, where)
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 4} {
					db.Instances = k
					if err := run("udtf", db, stmt.(*sqlparse.Select)); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					check(fmt.Sprintf("%s k=%d", sql, k), before, db)
				}
			}
		}
	}
	if ints == 0 || floats == 0 {
		t.Fatalf("coverage hole: %d PLAIN INTEGER and %d PLAIN FLOAT blocks", ints, floats)
	}
	for _, phase := range []string{"single-table", "join", "udtf"} {
		if 10*ran[phase] < 9*tried[phase] {
			t.Fatalf("%s: %d of %d statement runs succeeded; the checksums need statements that scanned", phase, ran[phase], tried[phase])
		}
	}
	t.Logf("storage unchanged; statement runs succeeded %v of %v; %d PLAIN INTEGER and %d PLAIN FLOAT blocks", ran, tried, ints, floats)
}
