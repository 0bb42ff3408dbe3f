package main

import (
	"fmt"
	"math"
	"math/rand"

	"verticadr/internal/algos"
	"verticadr/internal/colstore"
)

// The generator turns a seed into the benchmark's inputs and into the values
// the correctness gate expects. Only the generated tables reach the program;
// the seed itself never does.

const (
	nFeat     = 8  // feature columns of pts
	nServe    = 4  // feature columns of events (x0..x3)
	nGroups   = 64 // distinct values of events.grp
	nDimGrp   = 50 // distinct values of dim.grp
	regionRun = 5000
	copyRows  = 2048 // rows per COPY commit
	scoreSpan = 256  // id range of one score request
	// copyRowBytes is the user data of one events row: eight 8-byte values
	// and a region name of about five bytes.
	copyRowBytes = 8*8 + 5
)

var regions = []string{"amer", "apac", "emea", "latam", "mena", "nordic", "oceania", "ssa"}

// Statements and table definitions shared by every deployment.
var (
	ptsSchema = func() colstore.Schema {
		s := colstore.Schema{{Name: "id", Type: colstore.TypeInt64}}
		for j := 0; j < nFeat; j++ {
			s = append(s, colstore.ColumnSchema{Name: fmt.Sprintf("f%d", j), Type: colstore.TypeFloat64})
		}
		return append(s,
			colstore.ColumnSchema{Name: "y", Type: colstore.TypeFloat64},
			colstore.ColumnSchema{Name: "c", Type: colstore.TypeFloat64})
	}()
	eventsSchema = colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "k", Type: colstore.TypeInt64},
		{Name: "dim_id", Type: colstore.TypeInt64},
		{Name: "grp", Type: colstore.TypeInt64},
		{Name: "region", Type: colstore.TypeString},
		{Name: "x0", Type: colstore.TypeFloat64},
		{Name: "x1", Type: colstore.TypeFloat64},
		{Name: "x2", Type: colstore.TypeFloat64},
		{Name: "x3", Type: colstore.TypeFloat64},
	}
	dimSchema = colstore.Schema{
		{Name: "id", Type: colstore.TypeInt64},
		{Name: "grp", Type: colstore.TypeInt64},
		{Name: "w", Type: colstore.TypeFloat64},
	}
	eventsInDDL = `CREATE TABLE events_in (id INTEGER, k INTEGER, dim_id INTEGER, grp INTEGER, region VARCHAR, x0 FLOAT, x1 FLOAT, x2 FLOAT, x3 FLOAT) SEGMENTED BY HASH(id)`
	ddl         = []string{
		`CREATE TABLE pts (id INTEGER, f0 FLOAT, f1 FLOAT, f2 FLOAT, f3 FLOAT, f4 FLOAT, f5 FLOAT, f6 FLOAT, f7 FLOAT, y FLOAT, c FLOAT) SEGMENTED BY HASH(id)`,
		`CREATE TABLE events (id INTEGER, k INTEGER, dim_id INTEGER, grp INTEGER, region VARCHAR, x0 FLOAT, x1 FLOAT, x2 FLOAT, x3 FLOAT) SEGMENTED BY HASH(id)`,
		eventsInDDL,
		`CREATE TABLE dim (id INTEGER, grp INTEGER, w FLOAT) SEGMENTED BY HASH(id)`,
	}
	indexDDL = []string{
		`CREATE INDEX events_k ON events (k)`,
		`CREATE INDEX dim_id ON dim (id)`,
	}
)

// Model coefficients are fixed (not seeded): the seed varies the rows, the
// work per row stays the same on every run.
var (
	trueBeta = []float64{-0.25, 0.9, -0.7, 0.5, -0.3, 0.2, 0.6, -0.4, 0.1} // intercept + 8
	serveGLM = &algos.GLMModel{Family: algos.Binomial, Converged: true,
		Coefficients: []float64{0.1, 0.8, -0.6, 0.4, -0.2}}
	pipeGLM = &algos.GLMModel{Family: algos.Binomial, Converged: true, Coefficients: trueBeta}
)

// eventsData is the column-major content of an events-shaped table.
type eventsData struct {
	id, k, dimID, grp []int64
	region            []string
	x                 [nServe][]float64
	scorePrefix       []uint64 // wrapping prefix sums of Float64bits(serveGLM.Predict(row))
}

// dataset is everything one run loads, plus what the gate compares against.
type dataset struct {
	ptsRows, eventsRows, inRows, dimRows int

	ptsF   [nFeat][]float64
	ptsY   []float64
	ptsC   []float64
	ptsSum uint64 // wrapping sum of Float64bits(pipeGLM.Predict(row)) over pts

	events eventsData // the immutable serving table
	in     eventsData // preloaded part of events_in (ids 0..inRows-1)

	dimGrp []int64
	dimW   []float64

	// copyTemplates are the COPY payloads (ids >= inRows so the reader's
	// `id < inRows` predicate keeps its work fixed while the table grows).
	copyTemplates [][][]any
	copySumX0     []float64 // per template: sum of x0 in row order
}

// kOf scatters ids over [0,n): a fixed odd multiplier coprime to n makes k a
// permutation of id, so zone maps cannot skip and `k = ?` is selective only
// through the index.
func kOf(id, n int) int64 { return int64(id) * 2654435761 % int64(n) }

func bitsSum(vals []float64) uint64 {
	var s uint64
	for _, v := range vals {
		s += math.Float64bits(v)
	}
	return s
}

// dyadic draws a standard normal rounded to a multiple of 2^-10. Sums of
// millions of such values are exact in float64 whatever the order of
// addition, so every sum() in the gate is compared for equality — with the
// generator's, and between the routed cluster and a single-node session,
// which associate per-shard partials differently.
func dyadic(rng *rand.Rand) float64 { return math.Round(rng.NormFloat64()*1024) / 1024 }

func genEvents(rng *rand.Rand, n, dimRows int) eventsData {
	e := eventsData{
		id: make([]int64, n), k: make([]int64, n), dimID: make([]int64, n),
		grp: make([]int64, n), region: make([]string, n),
		scorePrefix: make([]uint64, n+1),
	}
	for j := range e.x {
		e.x[j] = make([]float64, n)
	}
	row := make([]float64, nServe)
	for i := 0; i < n; i++ {
		e.id[i] = int64(i)
		e.k[i] = kOf(i, n)
		e.dimID[i] = int64(rng.Intn(dimRows))
		e.grp[i] = int64(rng.Intn(nGroups))
		e.region[i] = regions[(i/regionRun)%len(regions)]
		for j := range e.x {
			row[j] = dyadic(rng)
			e.x[j][i] = row[j]
		}
		e.scorePrefix[i+1] = e.scorePrefix[i] + math.Float64bits(serveGLM.Predict(row))
	}
	return e
}

func (e *eventsData) batch(lo, hi int) *colstore.Batch {
	return &colstore.Batch{Schema: eventsSchema, Cols: []*colstore.Vector{
		colstore.IntVector(e.id[lo:hi]), colstore.IntVector(e.k[lo:hi]),
		colstore.IntVector(e.dimID[lo:hi]), colstore.IntVector(e.grp[lo:hi]),
		colstore.StringVector(e.region[lo:hi]),
		colstore.FloatVector(e.x[0][lo:hi]), colstore.FloatVector(e.x[1][lo:hi]),
		colstore.FloatVector(e.x[2][lo:hi]), colstore.FloatVector(e.x[3][lo:hi]),
	}}
}

func generate(seed int64, sz sizes) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{ptsRows: sz.ptsRows, eventsRows: sz.eventsRows, inRows: sz.inRows, dimRows: sz.dimRows}

	for j := range d.ptsF {
		d.ptsF[j] = make([]float64, d.ptsRows)
	}
	d.ptsY = make([]float64, d.ptsRows)
	d.ptsC = make([]float64, d.ptsRows)
	row := make([]float64, nFeat)
	for i := 0; i < d.ptsRows; i++ {
		eta := trueBeta[0]
		for j := range d.ptsF {
			row[j] = rng.NormFloat64()
			d.ptsF[j][i] = row[j]
			eta += trueBeta[j+1] * row[j]
		}
		d.ptsY[i] = eta + 0.5*rng.NormFloat64()
		if rng.Float64() < 1/(1+math.Exp(-eta)) {
			d.ptsC[i] = 1
		}
		d.ptsSum += math.Float64bits(pipeGLM.Predict(row))
	}

	d.events = genEvents(rng, d.eventsRows, d.dimRows)
	d.in = genEvents(rng, d.inRows, d.dimRows)

	d.dimGrp = make([]int64, d.dimRows)
	d.dimW = make([]float64, d.dimRows)
	for i := range d.dimGrp {
		d.dimGrp[i] = int64(i % nDimGrp)
		d.dimW[i] = rng.Float64()
	}

	const templates = 4
	for t := 0; t < templates; t++ {
		rows := make([][]any, copyRows)
		var sum float64
		for r := range rows {
			id := d.inRows + t*copyRows + r
			x0 := dyadic(rng)
			sum += x0
			rows[r] = []any{int64(id), int64(id), int64(rng.Intn(d.dimRows)), int64(rng.Intn(nGroups)),
				regions[t%len(regions)], x0, dyadic(rng), dyadic(rng), dyadic(rng)}
		}
		d.copyTemplates = append(d.copyTemplates, rows)
		d.copySumX0 = append(d.copySumX0, sum)
	}
	return d
}

func (d *dataset) ptsBatch(lo, hi int) *colstore.Batch {
	ids := make([]int64, hi-lo)
	for i := range ids {
		ids[i] = int64(lo + i)
	}
	cols := []*colstore.Vector{colstore.IntVector(ids)}
	for j := range d.ptsF {
		cols = append(cols, colstore.FloatVector(d.ptsF[j][lo:hi]))
	}
	cols = append(cols, colstore.FloatVector(d.ptsY[lo:hi]), colstore.FloatVector(d.ptsC[lo:hi]))
	return &colstore.Batch{Schema: ptsSchema, Cols: cols}
}

func (d *dataset) dimBatch(lo, hi int) *colstore.Batch {
	ids := make([]int64, hi-lo)
	for i := range ids {
		ids[i] = int64(lo + i)
	}
	return &colstore.Batch{Schema: dimSchema, Cols: []*colstore.Vector{
		colstore.IntVector(ids), colstore.IntVector(d.dimGrp[lo:hi]), colstore.FloatVector(d.dimW[lo:hi])}}
}
