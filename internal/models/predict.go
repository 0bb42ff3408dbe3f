package models

import (
	"fmt"

	"verticadr/internal/algos"
	"verticadr/internal/colstore"
	"verticadr/internal/udf"
)

// predictBlockRows is the scoring block size: column-major blocks of 2048
// rows, matching the IRLS chunk size, so feature slices stay cache-resident
// while each model coefficient/center/tree streams over them.
const predictBlockRows = 2048

// predictUDF is the shared implementation behind KmeansPredict, GlmPredict
// and RfPredict (§5, Fig. 11). Each parallel instance fetches the named
// model from DFS (local replica preferred), deserializes it once, and scores
// its partition of rows. `want` documents the expected family; a model of a
// different family is rejected with a clear error.
//
// Scoring is vectorized: rows are processed in column-major blocks through
// the algos block scorers (bit-identical to the row-at-a-time scorers), and
// the output batch and its prediction slice are reused across blocks (a
// BatchWriter never retains what it is handed), making the steady-state
// scoring loop allocation-free.
type predictUDF struct {
	want string
}

// OutputSchema: a single prediction column. KmeansPredict emits the nearest
// cluster index (INTEGER); the regression predictors emit FLOAT.
func (p predictUDF) OutputSchema(in colstore.Schema, params udf.Params) (colstore.Schema, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("models: prediction needs at least one feature column")
	}
	for _, c := range in {
		if c.Type != colstore.TypeFloat64 && c.Type != colstore.TypeInt64 {
			return nil, fmt.Errorf("models: feature column %q is %v, need numeric", c.Name, c.Type)
		}
	}
	if _, err := params.String("model"); err != nil {
		return nil, err
	}
	return p.outSchema(), nil
}

func (p predictUDF) outSchema() colstore.Schema {
	if p.want == TypeKmeans {
		return colstore.Schema{{Name: "cluster", Type: colstore.TypeInt64}}
	}
	return colstore.Schema{{Name: "prediction", Type: colstore.TypeFloat64}}
}

func (p predictUDF) ProcessPartition(ctx *udf.Ctx, in udf.BatchReader, out udf.BatchWriter) error {
	svc, err := ctx.Service(ServiceName)
	if err != nil {
		return err
	}
	mgr, ok := svc.(*Manager)
	if !ok {
		return fmt.Errorf("models: service %q is %T, not *Manager", ServiceName, svc)
	}
	name, err := ctx.Params.String("model")
	if err != nil {
		return err
	}
	// Retrieve from DFS as seen from this database node; deserialize once
	// per instance (the paper's "retrieve the models from DFS, deserialize
	// and load them in R").
	model, kind, err := mgr.Load(name, ctx.NodeID)
	if err != nil {
		return err
	}
	score, assign, dims, err := p.blockScorer(model, kind)
	if err != nil {
		return err
	}
	// Checked against the call, not the first batch: an empty partition
	// fails the same way a populated one does.
	if dims > 0 && len(ctx.InSchema) != dims {
		return fmt.Errorf("models: model %q expects %d features, query passed %d", name, dims, len(ctx.InSchema))
	}

	kmeans := p.want == TypeKmeans
	// One output batch and one prediction slice serve every block.
	outSchema := p.outSchema()
	ob := &colstore.Batch{Schema: outSchema, Cols: []*colstore.Vector{{Type: outSchema[0].Type}}}
	var fscratch []float64
	var iscratch []int64
	if kmeans {
		iscratch = make([]int64, predictBlockRows)
	} else {
		fscratch = make([]float64, predictBlockRows)
	}

	feat := make([][]float64, 0, 8) // column views for the current block
	var conv [][]float64            // per-column int→float conversion scratch
	for {
		b, err := in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if conv == nil {
			conv = make([][]float64, len(b.Cols))
		}
		n := b.Len()
		for lo := 0; lo < n; lo += predictBlockRows {
			hi := lo + predictBlockRows
			if hi > n {
				hi = n
			}
			rows := hi - lo
			// Column-major feature views: float columns are zero-copy
			// subslices; integer columns convert once per block into reused
			// scratch (the same float64(int) widening gatherRow applied).
			feat = feat[:0]
			for j, col := range b.Cols {
				switch col.Type {
				case colstore.TypeFloat64:
					feat = append(feat, col.Floats[lo:hi])
				case colstore.TypeInt64:
					if cap(conv[j]) < rows {
						conv[j] = make([]float64, predictBlockRows)
					}
					dst := conv[j][:rows]
					for i, v := range col.Ints[lo:hi] {
						dst[i] = float64(v)
					}
					feat = append(feat, dst)
				}
			}
			if kmeans {
				ob.Cols[0].Ints = iscratch[:rows]
				assign(feat, ob.Cols[0].Ints)
			} else {
				ob.Cols[0].Floats = fscratch[:rows]
				score(feat, ob.Cols[0].Floats)
			}
			if err := out.Write(ob); err != nil {
				return err
			}
		}
	}
}

// blockScorer adapts the concrete model to column-major block scorers and
// reports the expected feature count (0 = unchecked). Exactly one of score /
// assign is non-nil, matching the UDF's output type.
func (p predictUDF) blockScorer(model any, kind string) (score func([][]float64, []float64), assign func([][]float64, []int64), dims int, err error) {
	switch m := model.(type) {
	case *algos.KmeansModel:
		if p.want != TypeKmeans {
			return nil, nil, 0, fmt.Errorf("models: %s applied to a kmeans model", p.funcName())
		}
		if len(m.Centers) > 0 {
			dims = len(m.Centers[0])
		}
		var sc algos.AssignScratch
		return nil, func(cols [][]float64, out []int64) { m.AssignBlock(cols, out, &sc) }, dims, nil
	case *algos.GLMModel:
		if p.want != TypeGLM {
			return nil, nil, 0, fmt.Errorf("models: %s applied to a %s model", p.funcName(), kind)
		}
		return m.PredictBlock, nil, len(m.Coefficients) - 1, nil
	case *ShardedGLM:
		if p.want != TypeGLM {
			return nil, nil, 0, fmt.Errorf("models: %s applied to a %s model", p.funcName(), kind)
		}
		return m.PredictBlock, nil, m.Meta.Dims, nil
	case *algos.ForestModel:
		if p.want != TypeRandomForest {
			return nil, nil, 0, fmt.Errorf("models: %s applied to a randomforest model", p.funcName())
		}
		return m.PredictBlock, nil, m.Features, nil
	default:
		return nil, nil, 0, fmt.Errorf("models: cannot score model of type %T", model)
	}
}

func (p predictUDF) funcName() string {
	switch p.want {
	case TypeKmeans:
		return "KmeansPredict"
	case TypeRandomForest:
		return "RfPredict"
	default:
		return "GlmPredict"
	}
}

// gatherRow is the row-at-a-time feature marshaller of the pre-vectorized
// scorer, kept as the reference implementation the bit-pinning tests score
// against.
func gatherRow(dst []float64, b *colstore.Batch, r int) []float64 {
	for _, col := range b.Cols {
		switch col.Type {
		case colstore.TypeFloat64:
			dst = append(dst, col.Floats[r])
		case colstore.TypeInt64:
			dst = append(dst, float64(col.Ints[r]))
		}
	}
	return dst
}
