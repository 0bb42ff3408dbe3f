package main

import (
	"context"
	"math/rand"

	"verticadr/internal/algos"
	"verticadr/internal/core"
)

// The -demo serving fixture: a feature table, a small GLM and a forest, so a
// client can issue prediction queries the moment the server is up.
const (
	serveTable    = "serve_pts"
	serveTableDDL = `CREATE TABLE serve_pts (a FLOAT, b FLOAT) SEGMENTED BY ROUND ROBIN`
	serveRows     = 20000

	// servePredictSQL scores with the forest — the model class where
	// per-query deserialization actually hurts (tens of thousands of tree
	// nodes per gob decode, once per UDF instance per query without the
	// model cache).
	servePredictSQL = `SELECT RfPredict(a, b USING PARAMETERS model='serve_rf') OVER (PARTITION BEST) FROM serve_pts`
	// serveGlmPredictSQL scores with the small GLM.
	serveGlmPredictSQL = `SELECT GlmPredict(a, b USING PARAMETERS model='serve_glm') OVER (PARTITION BEST) FROM serve_pts`
)

// syntheticForest builds a deterministic bagged forest of full binary trees
// (BFS layout: children of i at 2i+1/2i+2). Training is beside the point
// here — the fixture needs a deployed model of serving-realistic size, and
// trees*(2^(depth+1)-1) nodes makes deserialization a real cost.
func syntheticForest(trees, depth int) *algos.ForestModel {
	f := &algos.ForestModel{Features: 2}
	internal := 1<<depth - 1
	total := 1<<(depth+1) - 1
	for t := 0; t < trees; t++ {
		nodes := make([]algos.TreeNode, total)
		for i := 0; i < total; i++ {
			if i < internal {
				nodes[i] = algos.TreeNode{
					Feature: i % 2,
					Split:   float64(i%7)*0.25 - 0.75,
					Left:    2*i + 1,
					Right:   2*i + 2,
				}
			} else {
				nodes[i] = algos.TreeNode{Feature: -1, Value: float64((i+t)%5) * 0.5}
			}
		}
		f.Trees = append(f.Trees, algos.Tree{Nodes: nodes})
	}
	return f
}

// seedFixture creates whichever pieces of the serving fixture the session
// lacks and returns their names; an empty result means a previous run's
// fixture was recovered whole. Each piece is checked on its own because a
// durable directory can hold any prefix of them: every step below is one
// commit, and a crash can fall between any two.
func seedFixture(ctx context.Context, s *core.Session) ([]string, error) {
	var created []string
	if _, err := s.DB.TableDef(serveTable); err != nil { // only ever "not found"
		if err := s.ExecContext(ctx, serveTableDDL); err != nil {
			return nil, err
		}
		created = append(created, serveTable)
	}
	n, err := s.DB.TableRows(serveTable)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		rng := rand.New(rand.NewSource(5))
		cols := [][]float64{make([]float64, serveRows), make([]float64, serveRows)}
		for i := 0; i < serveRows; i++ {
			cols[0][i], cols[1][i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if err := s.DB.LoadColumns(serveTable, cols); err != nil {
			return nil, err
		}
		created = append(created, serveTable+" rows")
	}
	// R_Models is what Deploy itself consults, and its row is written after
	// the blob, so a listed model is whole and an unlisted one deploys clean.
	listed, err := s.Models.List(ctx)
	if err != nil {
		return nil, err
	}
	deployed := map[any]bool{}
	for _, row := range listed {
		deployed[row[0]] = true
	}
	for _, m := range []struct {
		name, desc string
		model      any
	}{
		{"serve_glm", "serving fixture GLM", &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{3, 2, -1}, Converged: true}},
		{"serve_rf", "serving fixture forest", syntheticForest(32, 10)},
	} {
		if deployed[m.name] {
			continue
		}
		if err := s.DeployModel(m.name, "demo", m.desc, m.model); err != nil {
			return nil, err
		}
		created = append(created, m.name)
	}
	return created, nil
}
