package models

import (
	"context"
	"math"
	"strings"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/colstore"
	"verticadr/internal/vertica"
)

func setup(t *testing.T, nodes int) (*vertica.DB, *Manager) {
	t.Helper()
	db, err := vertica.Open(vertica.Config{Nodes: nodes, BlockRows: 128, UDFInstancesPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	return db, mgr
}

func kmeansModel() *algos.KmeansModel {
	return &algos.KmeansModel{
		K:       2,
		Centers: [][]float64{{0, 0}, {10, 10}},
	}
}

func glmModel() *algos.GLMModel {
	return &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{1, 2, -0.5}}
}

func logisticModel() *algos.GLMModel {
	return &algos.GLMModel{Family: algos.Binomial, Coefficients: []float64{0, 3}}
}

func TestSerializeRoundTrip(t *testing.T) {
	cases := []struct {
		model any
		kind  string
	}{
		{kmeansModel(), TypeKmeans},
		{glmModel(), TypeRegression},
		{logisticModel(), TypeGLM},
		{&algos.ForestModel{Trees: []algos.Tree{{Nodes: []algos.TreeNode{{Feature: -1, Value: 3}}}}, Features: 1}, TypeRandomForest},
	}
	for _, c := range cases {
		data, kind, err := Serialize(c.model)
		if err != nil || kind != c.kind {
			t.Fatalf("serialize %T: %v kind=%q", c.model, err, kind)
		}
		back, kind2, err := Deserialize(data)
		if err != nil || kind2 != c.kind {
			t.Fatalf("deserialize: %v kind=%q", err, kind2)
		}
		switch m := back.(type) {
		case *algos.KmeansModel:
			if m.Centers[1][0] != 10 {
				t.Fatal("kmeans payload corrupted")
			}
		case *algos.GLMModel:
			if len(m.Coefficients) == 0 {
				t.Fatal("glm payload corrupted")
			}
		case *algos.ForestModel:
			if m.Predict([]float64{0}) != 3 {
				t.Fatal("forest payload corrupted")
			}
		}
	}
	if _, _, err := Serialize("not a model"); err == nil {
		t.Fatal("unsupported type should fail")
	}
	if _, _, err := Deserialize([]byte("garbage")); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestDeployListDrop(t *testing.T) {
	_, mgr := setup(t, 3)
	if err := mgr.Deploy(context.Background(), "model1", "X", "clustering", kmeansModel()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Deploy(context.Background(), "model2", "Y", "forecasting", glmModel()); err != nil {
		t.Fatal(err)
	}
	rows, err := mgr.List(context.Background())
	if err != nil || len(rows) != 2 {
		t.Fatalf("list = %v %v", rows, err)
	}
	// Fig. 10 shape: model | owner | type | size | description.
	if rows[0][0] != "model1" || rows[0][1] != "X" || rows[0][2] != TypeKmeans || rows[0][4] != "clustering" {
		t.Fatalf("row = %v", rows[0])
	}
	if rows[1][2] != TypeRegression {
		t.Fatalf("row = %v", rows[1])
	}
	if rows[0][3].(int64) <= 0 {
		t.Fatal("size should be positive")
	}
	// Duplicate deploy fails.
	if err := mgr.Deploy(context.Background(), "model1", "X", "", kmeansModel()); err == nil {
		t.Fatal("duplicate deploy should fail")
	}
	// Load round trip.
	m, kind, err := mgr.Load("model1", -1)
	if err != nil || kind != TypeKmeans {
		t.Fatalf("load: %v %q", err, kind)
	}
	if m.(*algos.KmeansModel).Centers[1][1] != 10 {
		t.Fatal("loaded model corrupted")
	}
	// Drop.
	if err := mgr.Drop(context.Background(), "model1"); err != nil {
		t.Fatal(err)
	}
	rows, _ = mgr.List(context.Background())
	if len(rows) != 1 || rows[0][0] != "model2" {
		t.Fatalf("after drop list = %v", rows)
	}
	if _, _, err := mgr.Load("model1", -1); err == nil {
		t.Fatal("load after drop should fail")
	}
	if err := mgr.Drop(context.Background(), "model1"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestDeployValidation(t *testing.T) {
	_, mgr := setup(t, 2)
	if err := mgr.Deploy(context.Background(), "bad name!", "X", "", kmeansModel()); err == nil {
		t.Fatal("invalid name should fail")
	}
	if err := mgr.Deploy(context.Background(), "m", "X", "", 42); err == nil {
		t.Fatal("unsupported model should fail")
	}
}

func TestRModelsQueryableViaSQL(t *testing.T) {
	db, mgr := setup(t, 2)
	_ = mgr.Deploy(context.Background(), "m1", "alice", "it's a model", kmeansModel())
	res, err := db.QueryContext(context.Background(), `SELECT model, owner, description FROM R_Models`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0][1] != "alice" || rows[0][2] != "it's a model" {
		t.Fatalf("R_Models rows = %v", rows)
	}
}

func loadPointsTable(t *testing.T, db *vertica.DB, n int) {
	t.Helper()
	if err := db.ExecContext(context.Background(), `CREATE TABLE pts (a FLOAT, b FLOAT)`); err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "a", Type: colstore.TypeFloat64},
		{Name: "b", Type: colstore.TypeFloat64},
	}
	batch := colstore.NewBatch(schema)
	for i := 0; i < n; i++ {
		// First half near (0,0), second half near (10,10).
		base := 0.0
		if i >= n/2 {
			base = 10
		}
		_ = batch.AppendRow(base+float64(i%5)*0.01, base+float64(i%3)*0.01)
	}
	if err := db.Load("pts", batch); err != nil {
		t.Fatal(err)
	}
}

func TestKmeansPredictSQL(t *testing.T) {
	db, mgr := setup(t, 3)
	loadPointsTable(t, db, 600)
	if err := mgr.Deploy(context.Background(), "km", "x", "", kmeansModel()); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 600 {
		t.Fatalf("predicted %d rows", res.Len())
	}
	zero, one := 0, 0
	for _, v := range res.Batch.Cols[0].Ints {
		switch v {
		case 0:
			zero++
		case 1:
			one++
		default:
			t.Fatalf("cluster id %d out of range", v)
		}
	}
	if zero != 300 || one != 300 {
		t.Fatalf("cluster counts = %d/%d", zero, one)
	}
}

func TestGlmPredictSQLMatchesInEngine(t *testing.T) {
	db, mgr := setup(t, 2)
	loadPointsTable(t, db, 100)
	model := glmModel()
	if err := mgr.Deploy(context.Background(), "reg", "x", "", model); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), `SELECT GlmPredict(a, b USING PARAMETERS model='reg') OVER (PARTITION BEST) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 100 {
		t.Fatalf("rows = %d", res.Len())
	}
	// Row-for-row equality against in-engine predictions: read the table
	// back and compare multisets of (prediction).
	raw, _ := db.QueryContext(context.Background(), `SELECT a, b FROM pts`)
	want := map[float64]int{}
	for _, r := range raw.Rows() {
		want[model.Predict([]float64{r[0].(float64), r[1].(float64)})]++
	}
	got := map[float64]int{}
	for _, v := range res.Batch.Cols[0].Floats {
		got[v]++
	}
	if len(got) != len(want) {
		t.Fatalf("prediction multiset size %d vs %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("prediction %v count %d vs %d", k, got[k], n)
		}
	}
}

func TestGlmPredictLogisticProbabilities(t *testing.T) {
	db, mgr := setup(t, 2)
	if err := db.ExecContext(context.Background(), `CREATE TABLE lx (x FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `INSERT INTO lx VALUES (-10.0), (0.0), (10.0)`); err != nil {
		t.Fatal(err)
	}
	_ = mgr.Deploy(context.Background(), "logit", "x", "", logisticModel())
	res, err := db.QueryContext(context.Background(), `SELECT GlmPredict(x USING PARAMETERS model='logit') OVER (PARTITION BEST) FROM lx`)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Batch.Cols[0].Floats {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
	// One of them is the x=0 row → p=0.5.
	found := false
	for _, p := range res.Batch.Cols[0].Floats {
		if math.Abs(p-0.5) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatal("x=0 should give p=0.5")
	}
}

func TestRfPredictSQL(t *testing.T) {
	db, mgr := setup(t, 2)
	loadPointsTable(t, db, 50)
	forest := &algos.ForestModel{
		Trees: []algos.Tree{{Nodes: []algos.TreeNode{
			{Feature: 0, Split: 5, Left: 1, Right: 2},
			{Feature: -1, Value: 0},
			{Feature: -1, Value: 1},
		}}},
		Features: 2,
	}
	_ = mgr.Deploy(context.Background(), "rf", "x", "", forest)
	res, err := db.QueryContext(context.Background(), `SELECT RfPredict(a, b USING PARAMETERS model='rf') OVER (PARTITION BEST) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi int
	for _, v := range res.Batch.Cols[0].Floats {
		if v == 0 {
			lo++
		} else if v == 1 {
			hi++
		}
	}
	if lo != 25 || hi != 25 {
		t.Fatalf("forest split = %d/%d", lo, hi)
	}
}

func TestPredictErrors(t *testing.T) {
	db, mgr := setup(t, 2)
	loadPointsTable(t, db, 10)
	_ = mgr.Deploy(context.Background(), "km", "x", "", kmeansModel())
	_ = mgr.Deploy(context.Background(), "reg", "x", "", glmModel())
	cases := []string{
		`SELECT KmeansPredict(a, b USING PARAMETERS model='missing') OVER (PARTITION BEST) FROM pts`,
		`SELECT KmeansPredict(a, b) OVER (PARTITION BEST) FROM pts`,                          // no model param
		`SELECT GlmPredict(a, b USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`, // wrong family
		`SELECT KmeansPredict(a USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`, // wrong feature count
		`SELECT KmeansPredict(USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`,   // no features
	}
	for _, q := range cases {
		if _, err := db.QueryContext(context.Background(), q); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestPredictPartitionByColumn(t *testing.T) {
	// PARTITION BY also works: prediction grouped by a key column.
	db, mgr := setup(t, 2)
	if err := db.ExecContext(context.Background(), `CREATE TABLE g (k INTEGER, a FLOAT, b FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecContext(context.Background(), `INSERT INTO g VALUES (1, 0.0, 0.0), (1, 0.1, 0.1), (2, 10.0, 10.0)`); err != nil {
		t.Fatal(err)
	}
	_ = mgr.Deploy(context.Background(), "km", "x", "", kmeansModel())
	res, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km') OVER (PARTITION BY k) FROM g`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestModelSurvivesNodeFailure(t *testing.T) {
	db, mgr := setup(t, 3)
	loadPointsTable(t, db, 60)
	_ = mgr.Deploy(context.Background(), "km", "x", "", kmeansModel())
	info, err := db.DFS().Stat("models/km")
	if err != nil {
		t.Fatal(err)
	}
	// Fail one replica: predictions must still work (fault tolerance, §5).
	if err := db.DFS().SetNodeDown(info.Replicas[0], true); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 60 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestSQLEscapeInDescriptions(t *testing.T) {
	_, mgr := setup(t, 2)
	desc := "it's; DROP TABLE R_Models"
	if err := mgr.Deploy(context.Background(), "m", "o'brien", desc, kmeansModel()); err != nil {
		t.Fatal(err)
	}
	rows, err := mgr.List(context.Background())
	if err != nil || len(rows) != 1 {
		t.Fatalf("list after tricky desc: %v %v", rows, err)
	}
	if !strings.Contains(rows[0][4].(string), "DROP TABLE") {
		t.Fatalf("description mangled: %q", rows[0][4])
	}
	if rows[0][1] != "o'brien" {
		t.Fatalf("owner mangled: %q", rows[0][1])
	}
}

// --- Bit-pinning: the vectorized scorers against the old row-at-a-time path ---

// referenceRows scores the raw table through gatherRow + the row-at-a-time
// model scorers — the exact pre-vectorization code path — and returns the
// multiset of result bit patterns.
func referenceRows(t *testing.T, db *vertica.DB, query string, score func(row []float64) float64) map[uint64]int {
	t.Helper()
	raw, err := db.QueryContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{}
	var row []float64
	for r := 0; r < raw.Len(); r++ {
		row = gatherRow(row[:0], raw.Batch, r)
		want[math.Float64bits(score(row))]++
	}
	return want
}

func floatBitsMultiset(vals []float64) map[uint64]int {
	got := map[uint64]int{}
	for _, v := range vals {
		got[math.Float64bits(v)]++
	}
	return got
}

func diffMultisets(t *testing.T, got, want map[uint64]int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct outputs, reference has %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: bit pattern %x seen %d times, reference %d", label, k, got[k], n)
		}
	}
}

// loadMixedTable creates a table with an INTEGER and a FLOAT feature so the
// block scorer's int→float conversion path is pinned too. Values mix
// magnitudes and signs, spanning several 2048-row scoring blocks.
func loadMixedTable(t *testing.T, db *vertica.DB, n int) {
	t.Helper()
	if err := db.ExecContext(context.Background(), `CREATE TABLE mixed (xi INTEGER, yf FLOAT)`); err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "xi", Type: colstore.TypeInt64},
		{Name: "yf", Type: colstore.TypeFloat64},
	}
	b := colstore.NewBatch(schema)
	for i := 0; i < n; i++ {
		_ = b.AppendRow(int64(i%97-48), float64(i)*0.3-0.123*float64(i%13))
	}
	if err := db.Load("mixed", b); err != nil {
		t.Fatal(err)
	}
}

func TestGlmPredictBitsMatchRowPath(t *testing.T) {
	db, mgr := setup(t, 3)
	loadMixedTable(t, db, 5000)
	lm := glmModel() // Gaussian: the LM case
	logit := &algos.GLMModel{Family: algos.Binomial, Coefficients: []float64{0.1, 0.02, -0.3}}
	_ = mgr.Deploy(context.Background(), "lm", "x", "", lm)
	_ = mgr.Deploy(context.Background(), "logit", "x", "", logit)
	for name, m := range map[string]*algos.GLMModel{"lm": lm, "logit": logit} {
		res, err := db.QueryContext(context.Background(), `SELECT GlmPredict(xi, yf USING PARAMETERS model='`+name+`') OVER (PARTITION BEST) FROM mixed`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 5000 {
			t.Fatalf("%s: %d rows", name, res.Len())
		}
		want := referenceRows(t, db, `SELECT xi, yf FROM mixed`, m.Predict)
		diffMultisets(t, floatBitsMultiset(res.Batch.Cols[0].Floats), want, name)
	}
}

func TestKmeansPredictBitsMatchRowPath(t *testing.T) {
	db, mgr := setup(t, 3)
	loadMixedTable(t, db, 4100)
	m := &algos.KmeansModel{K: 3, Centers: [][]float64{{0, 0}, {-20, 300}, {40, 900}}}
	_ = mgr.Deploy(context.Background(), "km", "x", "", m)
	res, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(xi, yf USING PARAMETERS model='km') OVER (PARTITION BEST) FROM mixed`)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRows(t, db, `SELECT xi, yf FROM mixed`, func(row []float64) float64 {
		return float64(m.Assign(row))
	})
	got := map[uint64]int{}
	for _, v := range res.Batch.Cols[0].Ints {
		got[math.Float64bits(float64(v))]++
	}
	diffMultisets(t, got, want, "kmeans")
}

func TestRfPredictBitsMatchRowPath(t *testing.T) {
	db, mgr := setup(t, 3)
	loadMixedTable(t, db, 4100)
	tree := func(feat int, split, lo, hi float64) algos.Tree {
		return algos.Tree{Nodes: []algos.TreeNode{
			{Feature: feat, Split: split, Left: 1, Right: 2},
			{Feature: -1, Value: lo},
			{Feature: -1, Value: hi},
		}}
	}
	reg := &algos.ForestModel{
		Trees:    []algos.Tree{tree(0, 3, 0.125, 7.5), tree(1, 100, -2, 0.33), tree(0, -10, 1, 2)},
		Features: 2,
	}
	clf := &algos.ForestModel{
		Trees:    append([]algos.Tree{}, reg.Trees...),
		Classify: true,
		Features: 2,
	}
	_ = mgr.Deploy(context.Background(), "rfreg", "x", "", reg)
	_ = mgr.Deploy(context.Background(), "rfclf", "x", "", clf)
	for name, m := range map[string]*algos.ForestModel{"rfreg": reg, "rfclf": clf} {
		res, err := db.QueryContext(context.Background(), `SELECT RfPredict(xi, yf USING PARAMETERS model='`+name+`') OVER (PARTITION BEST) FROM mixed`)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRows(t, db, `SELECT xi, yf FROM mixed`, m.Predict)
		diffMultisets(t, floatBitsMultiset(res.Batch.Cols[0].Floats), want, name)
	}
}

// TestPredictPartitionByBitsMatchRowPath pins the PARTITION BY path: rows
// route through per-group partitions (and the AppendWriter merge), yet every
// prediction bit must still match the row-at-a-time reference.
func TestPredictPartitionByBitsMatchRowPath(t *testing.T) {
	db, mgr := setup(t, 2)
	if err := db.ExecContext(context.Background(), `CREATE TABLE gm (k INTEGER, xi INTEGER, yf FLOAT)`); err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "k", Type: colstore.TypeInt64},
		{Name: "xi", Type: colstore.TypeInt64},
		{Name: "yf", Type: colstore.TypeFloat64},
	}
	b := colstore.NewBatch(schema)
	for i := 0; i < 900; i++ {
		_ = b.AppendRow(int64(i%7), int64(i-450), float64(i)*1.75-3)
	}
	if err := db.Load("gm", b); err != nil {
		t.Fatal(err)
	}
	m := glmModel()
	km := &algos.KmeansModel{K: 2, Centers: [][]float64{{0, 0}, {100, 700}}}
	_ = mgr.Deploy(context.Background(), "reg", "x", "", m)
	_ = mgr.Deploy(context.Background(), "km", "x", "", km)

	res, err := db.QueryContext(context.Background(), `SELECT GlmPredict(xi, yf USING PARAMETERS model='reg') OVER (PARTITION BY k) FROM gm`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 900 {
		t.Fatalf("rows = %d", res.Len())
	}
	want := referenceRows(t, db, `SELECT xi, yf FROM gm`, m.Predict)
	diffMultisets(t, floatBitsMultiset(res.Batch.Cols[0].Floats), want, "glm partition-by")

	kres, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(xi, yf USING PARAMETERS model='km') OVER (PARTITION BY k) FROM gm`)
	if err != nil {
		t.Fatal(err)
	}
	kwant := referenceRows(t, db, `SELECT xi, yf FROM gm`, func(row []float64) float64 {
		return float64(km.Assign(row))
	})
	kgot := map[uint64]int{}
	for _, v := range kres.Batch.Cols[0].Ints {
		kgot[math.Float64bits(float64(v))]++
	}
	diffMultisets(t, kgot, kwant, "kmeans partition-by")
}
