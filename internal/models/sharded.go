package models

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"verticadr/internal/algos"
	"verticadr/internal/verr"
)

// TypeGLMSharded tags GLM deployments whose coefficient array is split
// across multiple DFS blobs because it exceeds the transfer message budget.
const TypeGLMSharded = "glm-sharded"

// MaxBlobBytes is the single-message budget: a model whose serialized form
// exceeds it cannot ride one DFS transfer, so Deploy switches the GLM
// layout to sharded storage — a small metadata blob plus fixed-size
// coefficient shards, each under the budget.
const MaxBlobBytes = 256 << 10

// ShardedGLMMeta is the metadata blob of a sharded GLM deployment. The
// coefficient array itself lives in Shards separate blobs, each holding the
// contiguous feature window [k*ShardSize, min(Dims, (k+1)*ShardSize)).
type ShardedGLMMeta struct {
	Family    algos.Family
	Intercept float64
	Dims      int // feature count, excluding the intercept
	ShardSize int // features per shard (last shard may be short)
	Shards    int
}

// ShardedGLM is a loaded sharded deployment: the scorer the prediction UDF
// drives. Coef keeps the per-shard coefficient windows separate — the dense
// array is never materialized — and PredictBlock streams them shard-major.
type ShardedGLM struct {
	Meta ShardedGLMMeta
	Coef [][]float64
}

// PredictBlock scores column-major feature blocks against the sharded
// coefficients: a dot-product join of the feature batch with each
// coefficient shard in ascending feature order. The accumulation order is
// exactly GLMModel.PredictBlock's — intercept first, then one addition per
// feature j ascending — so sharded and dense deployments of the same model
// produce bit-identical predictions.
func (m *ShardedGLM) PredictBlock(cols [][]float64, out []float64) {
	for i := range out {
		out[i] = m.Meta.Intercept
	}
	j := 0
	for _, shard := range m.Coef {
		algos.AddTerms(out, shard, cols[j:j+len(shard)])
		j += len(shard)
	}
	algos.LinkBlock(m.Meta.Family, out)
}

func shardPath(name string, k int) string { return fmt.Sprintf("models/%s.shard%04d", name, k) }

// encodeShard/decodeShard carry one coefficient window as gob []float64.
func encodeShard(coef []float64) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(coef); err != nil {
		return nil, fmt.Errorf("models: encode shard: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeShard(data []byte) ([]float64, error) {
	var coef []float64
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&coef); err != nil {
		return nil, fmt.Errorf("models: decode shard: %w", err)
	}
	return coef, nil
}

// DeployGLMSharded stores a GLM across multiple blobs: coefficient shards of
// at most maxShardBytes each (MaxBlobBytes when <= 0), then the metadata
// blob, then the R_Models row. The write order means a reader that can see
// the metadata blob always finds every shard it references.
func (m *Manager) DeployGLMSharded(ctx context.Context, name, owner, description string, model *algos.GLMModel, maxShardBytes int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deployGLMSharded(ctx, name, owner, description, model, maxShardBytes)
}

func (m *Manager) deployGLMSharded(ctx context.Context, name, owner, description string, model *algos.GLMModel, maxShardBytes int) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("models: invalid model name %q", name)
	}
	if exists, err := m.exists(ctx, name); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("models: model %q already exists", name)
	}
	if len(model.Coefficients) == 0 {
		return fmt.Errorf("models: sharded deploy of %q: empty coefficient array", name)
	}
	if maxShardBytes <= 0 {
		maxShardBytes = MaxBlobBytes
	}
	// gob encodes a float64 in up to 9 bytes (full-mantissa values hit the
	// maximum); size shards at 10 bytes per coefficient so the encoded blob
	// stays under the budget with headroom for the stream preamble.
	shardSize := maxShardBytes / 10
	if shardSize < 1 {
		shardSize = 1
	}
	dims := len(model.Coefficients) - 1
	shards := (dims + shardSize - 1) / shardSize
	if shards < 1 {
		shards = 1
	}
	meta := ShardedGLMMeta{
		Family:    model.Family,
		Intercept: model.Coefficients[0],
		Dims:      dims,
		ShardSize: shardSize,
		Shards:    shards,
	}
	total := 0
	cleanup := func(upto int) {
		for k := 0; k < upto; k++ {
			_ = m.db.JournalBlobDelete(shardPath(name, k))
		}
	}
	for k := 0; k < shards; k++ {
		lo := k * shardSize
		hi := lo + shardSize
		if hi > dims {
			hi = dims
		}
		data, err := encodeShard(model.Coefficients[1+lo : 1+hi])
		if err != nil {
			cleanup(k)
			return err
		}
		if err := m.db.JournalBlobPut(shardPath(name, k), data); err != nil {
			cleanup(k)
			return err
		}
		total += len(data)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{Kind: TypeGLMSharded, Sharded: &meta}); err != nil {
		cleanup(shards)
		return fmt.Errorf("models: serialize sharded meta: %w", err)
	}
	if err := m.db.JournalBlobPut(blobPath(name), buf.Bytes()); err != nil {
		cleanup(shards)
		return err
	}
	total += buf.Len()
	ins := fmt.Sprintf(`INSERT INTO %s VALUES ('%s', '%s', '%s', %d, '%s')`,
		MetaTable, name, sqlEscape(owner), TypeGLMSharded, total, sqlEscape(description))
	if err := m.db.ExecContext(ctx, ins); err != nil {
		_ = m.db.JournalBlobDelete(blobPath(name))
		cleanup(shards)
		return err
	}
	m.cache.invalidate(name)
	return nil
}

// loadShards assembles a ShardedGLM from its shard blobs (node-local DFS
// replica preferred, like the metadata blob itself).
func (m *Manager) loadShards(name string, node int, meta *ShardedGLMMeta) (*ShardedGLM, error) {
	out := &ShardedGLM{Meta: *meta, Coef: make([][]float64, meta.Shards)}
	got := 0
	for k := 0; k < meta.Shards; k++ {
		var data []byte
		var err error
		if node >= 0 {
			data, _, err = m.db.DFS().ReadFrom(node, shardPath(name, k))
		} else {
			data, err = m.db.DFS().Read(shardPath(name, k))
		}
		if err != nil {
			return nil, fmt.Errorf("models: %w: shard %d of %q: %v", verr.ErrModelNotFound, k, name, err)
		}
		coef, err := decodeShard(data)
		if err != nil {
			return nil, err
		}
		out.Coef[k] = coef
		got += len(coef)
	}
	if got != meta.Dims {
		return nil, fmt.Errorf("models: sharded model %q has %d coefficients across shards, metadata says %d", name, got, meta.Dims)
	}
	return out, nil
}

// ShardInfo implements the planner's ShardInfoProvider: it reports the shard
// count of a sharded deployment so PREDICT over it plans (and EXPLAINs) as a
// dot-product join. Dense models and unknown names report ok=false.
func (m *Manager) ShardInfo(name string) (int, bool) {
	model, _, err := m.Load(name, -1)
	if err != nil {
		return 0, false
	}
	if sh, ok := model.(*ShardedGLM); ok {
		return sh.Meta.Shards, true
	}
	return 0, false
}
