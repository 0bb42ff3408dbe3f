package models

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"verticadr/internal/algos"
)

// wideGLM builds a GLM with dims feature coefficients of non-trivial bit
// patterns, so bit-identity checks are meaningful.
func wideGLM(dims int, fam algos.Family) *algos.GLMModel {
	coef := make([]float64, dims+1)
	for i := range coef {
		coef[i] = math.Sqrt(float64(i)+0.5) * 1e-3
		if i%3 == 1 {
			coef[i] = -coef[i]
		}
	}
	return &algos.GLMModel{Family: fam, Coefficients: coef}
}

func TestShardedPredictBlockBitIdenticalToDense(t *testing.T) {
	for _, fam := range []algos.Family{algos.Gaussian, algos.Binomial, algos.Poisson} {
		dense := wideGLM(257, fam) // not a multiple of any shard size
		for _, shardSize := range []int{1, 64, 100, 257, 1000} {
			sh := &ShardedGLM{Meta: ShardedGLMMeta{
				Family:    fam,
				Intercept: dense.Coefficients[0],
				Dims:      257,
				ShardSize: shardSize,
			}}
			for lo := 0; lo < 257; lo += shardSize {
				hi := lo + shardSize
				if hi > 257 {
					hi = 257
				}
				sh.Coef = append(sh.Coef, dense.Coefficients[1+lo:1+hi])
			}
			sh.Meta.Shards = len(sh.Coef)

			const rows = 37
			cols := make([][]float64, 257)
			for j := range cols {
				cols[j] = make([]float64, rows)
				for i := range cols[j] {
					cols[j][i] = math.Sin(float64(j*31+i)) * 2.5
				}
			}
			want := make([]float64, rows)
			got := make([]float64, rows)
			dense.PredictBlock(cols, want)
			sh.PredictBlock(cols, got)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("fam %s shardSize %d row %d: sharded %x != dense %x",
						fam, shardSize, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestShardedDeployLoadShardInfo(t *testing.T) {
	db, mgr := setup(t, 3)
	model := wideGLM(10, algos.Gaussian)
	// 3 coefficients per shard: 10 features -> 4 shards.
	if err := mgr.DeployGLMSharded(context.Background(), "wide", "x", "sharded", model, 3*10); err != nil {
		t.Fatal(err)
	}
	if shards, ok := mgr.ShardInfo("wide"); !ok || shards != 4 {
		t.Fatalf("ShardInfo = %d, %v; want 4, true", shards, ok)
	}
	// The shard blobs exist alongside the metadata blob.
	for k := 0; k < 4; k++ {
		if _, err := db.DFS().Read(shardPath("wide", k)); err != nil {
			t.Fatalf("shard %d missing: %v", k, err)
		}
	}
	loaded, kind, err := mgr.Load("wide", -1)
	if err != nil || kind != TypeGLMSharded {
		t.Fatalf("load: %v kind=%q", err, kind)
	}
	sh, ok := loaded.(*ShardedGLM)
	if !ok {
		t.Fatalf("loaded %T, want *ShardedGLM", loaded)
	}
	if sh.Meta.Dims != 10 || sh.Meta.Shards != 4 || len(sh.Coef[3]) != 1 {
		t.Fatalf("meta = %+v, tail shard %d coefs", sh.Meta, len(sh.Coef[3]))
	}
	// R_Models row carries the sharded type tag and total byte size.
	rows, err := mgr.List(context.Background())
	if err != nil || len(rows) != 1 || rows[0][2] != TypeGLMSharded {
		t.Fatalf("list = %v %v", rows, err)
	}

	// Dense models and unknown names are not sharded.
	if err := mgr.Deploy(context.Background(), "dense", "x", "", glmModel()); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.ShardInfo("dense"); ok {
		t.Fatal("dense model reported as sharded")
	}
	if _, ok := mgr.ShardInfo("missing"); ok {
		t.Fatal("unknown model reported as sharded")
	}

	// Drop removes every shard blob, not just the metadata blob.
	if err := mgr.Drop(context.Background(), "wide"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DFS().Read(blobPath("wide")); err == nil {
		t.Fatal("metadata blob survived drop")
	}
	for k := 0; k < 4; k++ {
		if _, err := db.DFS().Read(shardPath("wide", k)); err == nil {
			t.Fatalf("shard %d survived drop", k)
		}
	}
}

// TestDeployAutoShardsOversizedGLM pins the acceptance property: a model
// larger than one transfer message (MaxBlobBytes) deploys and predicts
// anyway, transparently switching to the sharded layout.
func TestDeployAutoShardsOversizedGLM(t *testing.T) {
	db, mgr := setup(t, 2)
	dims := MaxBlobBytes/8 + 5000 // serialized form comfortably over budget
	model := wideGLM(dims, algos.Gaussian)
	if err := mgr.Deploy(context.Background(), "big", "x", "oversized", model); err != nil {
		t.Fatal(err)
	}
	shards, ok := mgr.ShardInfo("big")
	if !ok || shards < 2 {
		t.Fatalf("oversized deploy not sharded: %d, %v", shards, ok)
	}
	// Every blob of the deployment fits the message budget.
	for _, info := range db.DFS().List() {
		if strings.HasPrefix(info.Name, "models/big") && info.Size > MaxBlobBytes {
			t.Fatalf("blob %s is %d bytes, over the %d budget", info.Name, info.Size, MaxBlobBytes)
		}
	}
	loaded, _, err := mgr.Load("big", -1)
	if err != nil {
		t.Fatal(err)
	}
	sh := loaded.(*ShardedGLM)
	const rows = 16
	cols := make([][]float64, dims)
	for j := range cols {
		cols[j] = make([]float64, rows)
		for i := range cols[j] {
			cols[j][i] = math.Cos(float64(j + i*7))
		}
	}
	want := make([]float64, rows)
	got := make([]float64, rows)
	model.PredictBlock(cols, want)
	sh.PredictBlock(cols, got)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d: sharded %v != dense %v", i, got[i], want[i])
		}
	}
}

// TestShardedGlmPredictSQLBitIdentical runs GlmPredict end to end over a
// sharded deployment and compares against the dense deployment of the same
// model, bit for bit.
func TestShardedGlmPredictSQLBitIdentical(t *testing.T) {
	db, mgr := setup(t, 2)
	if err := db.ExecContext(context.Background(), `CREATE TABLE f5 (c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT, c4 FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		vals := make([]string, 5)
		for j := range vals {
			vals[j] = fmt.Sprintf("%g", math.Sin(float64(i*5+j))*3)
		}
		if err := db.ExecContext(context.Background(), fmt.Sprintf(`INSERT INTO f5 VALUES (%s)`, strings.Join(vals, ", "))); err != nil {
			t.Fatal(err)
		}
	}
	model := wideGLM(5, algos.Binomial)
	if err := mgr.Deploy(context.Background(), "d5", "x", "", model); err != nil {
		t.Fatal(err)
	}
	if err := mgr.DeployGLMSharded(context.Background(), "s5", "x", "", model, 2*10); err != nil { // 2 coefs/shard -> 3 shards
		t.Fatal(err)
	}
	q := `SELECT GlmPredict(c0, c1, c2, c3, c4 USING PARAMETERS model='%s') OVER (PARTITION BEST) FROM f5`
	dres, err := db.QueryContext(context.Background(), fmt.Sprintf(q, "d5"))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := db.QueryContext(context.Background(), fmt.Sprintf(q, "s5"))
	if err != nil {
		t.Fatal(err)
	}
	if dres.Len() != 40 || sres.Len() != 40 {
		t.Fatalf("row counts %d / %d", dres.Len(), sres.Len())
	}
	// PARTITION BEST order is deterministic for identical queries, so the
	// outputs align row for row.
	for i := range dres.Batch.Cols[0].Floats {
		d := dres.Batch.Cols[0].Floats[i]
		s := sres.Batch.Cols[0].Floats[i]
		if math.Float64bits(d) != math.Float64bits(s) {
			t.Fatalf("row %d: sharded %v != dense %v", i, s, d)
		}
	}
}
