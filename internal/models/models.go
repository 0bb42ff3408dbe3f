// Package models implements §5 of the paper: saving machine-learning models
// created in Distributed R into the database and applying them with
// in-database parallel prediction functions. Models are serialized (gob)
// and stored as binary blobs in the database's distributed file system —
// "since models can be large ... we don't store them as part of a regular
// table" — while their metadata lives in an actual R_Models table (Fig. 10)
// queryable with plain SQL. Prediction functions (KmeansPredict, GlmPredict,
// RfPredict) are transform UDFs: the query planner fans out parallel
// instances, each of which fetches the model from DFS (preferring the local
// replica), deserializes it, and scores its partition of rows.
package models

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"regexp"
	"sync"

	"verticadr/internal/algos"
	"verticadr/internal/dfs"
	"verticadr/internal/faults"
	"verticadr/internal/sqlexec"
	"verticadr/internal/udf"
	"verticadr/internal/verr"
)

// Model type tags stored in R_Models.type.
const (
	TypeKmeans       = "kmeans"
	TypeRegression   = "regression"
	TypeGLM          = "glm"
	TypeRandomForest = "randomforest"
)

// ServiceName is the UDF service key for the model manager.
const ServiceName = "models"

// MetaTable is the metadata table name (Fig. 10).
const MetaTable = "R_Models"

// envelope is the gob wire format: exactly one payload field is set.
// Sharded deployments store only the small metadata document here; the
// coefficient array lives in separate shard blobs (sharded.go).
type envelope struct {
	Kind    string
	Kmeans  *algos.KmeansModel
	GLM     *algos.GLMModel
	Forest  *algos.ForestModel
	Sharded *ShardedGLMMeta
}

// Serialize encodes a supported model, returning its bytes and type tag.
func Serialize(model any) ([]byte, string, error) {
	env := envelope{}
	switch m := model.(type) {
	case *algos.KmeansModel:
		env.Kind, env.Kmeans = TypeKmeans, m
	case *algos.GLMModel:
		if m.Family == algos.Gaussian {
			env.Kind = TypeRegression
		} else {
			env.Kind = TypeGLM
		}
		env.GLM = m
	case *algos.ForestModel:
		env.Kind, env.Forest = TypeRandomForest, m
	default:
		return nil, "", fmt.Errorf("models: unsupported model type %T", model)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return nil, "", fmt.Errorf("models: serialize: %w", err)
	}
	return buf.Bytes(), env.Kind, nil
}

// Deserialize decodes model bytes back into the concrete model value.
func Deserialize(data []byte) (any, string, error) {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, "", fmt.Errorf("models: deserialize: %w", err)
	}
	switch {
	case env.Kmeans != nil:
		return env.Kmeans, env.Kind, nil
	case env.GLM != nil:
		return env.GLM, env.Kind, nil
	case env.Forest != nil:
		return env.Forest, env.Kind, nil
	case env.Sharded != nil:
		return env.Sharded, env.Kind, nil
	default:
		return nil, "", fmt.Errorf("models: empty model envelope (kind %q)", env.Kind)
	}
}

// Database is the database surface the manager needs; internal/vertica.DB
// satisfies it.
type Database interface {
	ExecContext(ctx context.Context, sql string) error
	QueryContext(ctx context.Context, sql string) (*sqlexec.Result, error)
	UDFs() *udf.Registry
	RegisterService(name string, svc any)
	DFS() *dfs.DFS
	// Blob mutations go through the database's commit path: on a durable
	// database they are redo-logged and fsynced before the DFS namespace
	// changes, making deploy/redeploy/drop crash-atomic.
	JournalBlobPut(path string, data []byte) error
	JournalBlobDelete(path string) error
}

var nameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_.-]*$`)

// Manager deploys models to the database and serves them to prediction UDFs.
type Manager struct {
	db    Database
	acl   *acl
	cache *modelCache
	// mu serializes the R_Models writers (Deploy, DeployGLMSharded,
	// Redeploy, Drop): a deploy checks the name is free before inserting,
	// and Drop rebuilds the table from a read of its rows, so an
	// interleaved writer would duplicate or lose a row. Load takes no lock.
	mu sync.Mutex
}

// NewManager creates the R_Models metadata table, registers the manager as
// a UDF service, and installs the prediction functions. On a recovered
// durable database the metadata table (and the model blobs it describes)
// already exist: the manager adopts the surviving rows instead of failing,
// rebuilding its in-memory ACL from the persisted owner column.
func NewManager(ctx context.Context, db Database) (*Manager, error) {
	m := &Manager{db: db, acl: newACL(), cache: newModelCache()}
	if res, err := db.QueryContext(ctx, `SELECT model, owner FROM `+MetaTable); err == nil {
		for _, r := range res.Rows() {
			m.acl.register(r[0].(string), r[1].(string))
		}
	} else {
		err := db.ExecContext(ctx, `CREATE TABLE `+MetaTable+` (model VARCHAR, owner VARCHAR, type VARCHAR, size INTEGER, description VARCHAR)`)
		if err != nil {
			return nil, fmt.Errorf("models: create metadata table: %w", err)
		}
	}
	db.RegisterService(ServiceName, m)
	if err := db.UDFs().Register("KmeansPredict", func() udf.Transform { return predictUDF{want: TypeKmeans} }); err != nil {
		return nil, err
	}
	if err := db.UDFs().Register("GlmPredict", func() udf.Transform { return predictUDF{want: TypeGLM} }); err != nil {
		return nil, err
	}
	if err := db.UDFs().Register("RfPredict", func() udf.Transform { return predictUDF{want: TypeRandomForest} }); err != nil {
		return nil, err
	}
	return m, nil
}

func blobPath(name string) string { return "models/" + name }

// Deploy serializes a model, stores the blob in DFS (replicated) and records
// metadata in R_Models — the server half of deploy.model (Fig. 3 line 9).
func (m *Manager) Deploy(ctx context.Context, name, owner, description string, model any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !nameRE.MatchString(name) {
		return fmt.Errorf("models: invalid model name %q", name)
	}
	if exists, err := m.exists(ctx, name); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("models: model %q already exists", name)
	}
	data, kind, err := Serialize(model)
	if err != nil {
		return err
	}
	// A GLM too large for one transfer message switches to the sharded
	// layout transparently: same name, same prediction results, multiple
	// blobs under the message budget.
	if glm, ok := model.(*algos.GLMModel); ok && len(data) > MaxBlobBytes {
		return m.deployGLMSharded(ctx, name, owner, description, glm, MaxBlobBytes)
	}
	if err := m.db.JournalBlobPut(blobPath(name), data); err != nil {
		return err
	}
	ins := fmt.Sprintf(`INSERT INTO %s VALUES ('%s', '%s', '%s', %d, '%s')`,
		MetaTable, name, sqlEscape(owner), kind, len(data), sqlEscape(description))
	if err := m.db.ExecContext(ctx, ins); err != nil {
		// Roll back the blob so namespace and metadata stay consistent.
		_ = m.db.JournalBlobDelete(blobPath(name))
		return err
	}
	m.acl.register(name, owner)
	// A name can be dropped and re-deployed; any cached copy from the old
	// incarnation must not serve the new one.
	m.cache.invalidate(name)
	return nil
}

// Redeploy overwrites a deployed model's blob in place — the refresh a
// serving deployment performs without taking queries offline. Only the owner
// (or an administrative caller with empty owner) may replace the model; the
// metadata row (type, size) is rewritten and cached deserialized copies are
// invalidated, so after Redeploy returns no prediction can score with the
// old parameters.
func (m *Manager) Redeploy(ctx context.Context, name, owner string, model any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if exists, err := m.exists(ctx, name); err != nil {
		return err
	} else if !exists {
		return fmt.Errorf("models: %w: %q", verr.ErrModelNotFound, name)
	}
	if !m.acl.allowed(name, owner, PermModify) {
		return fmt.Errorf("models: user %q lacks MODIFY on model %q", owner, name)
	}
	data, _, err := Serialize(model)
	if err != nil {
		return err
	}
	// The journaled write is redo-logged and durable before the DFS namespace
	// flips to the new bytes, so a crash mid-redeploy can never acknowledge a
	// version bump and then lose it (the old torn window between blob write
	// and restart). Invalidate after the write so a load racing the redeploy
	// either reads the new bytes or is orphaned by the version bump and
	// cannot install its stale copy.
	if err := m.db.JournalBlobPut(blobPath(name), data); err != nil {
		return err
	}
	m.cache.invalidate(name)
	return nil
}

// SetCacheEnabled toggles the deserialized-model cache (default on).
// Disabling it restores the one-deserialization-per-UDF-instance behaviour,
// so every query reads the blob from DFS.
func (m *Manager) SetCacheEnabled(on bool) { m.cache.setEnabled(on) }

func sqlEscape(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '\'' {
			out = append(out, '\'')
		}
		out = append(out, r)
	}
	return string(out)
}

func (m *Manager) exists(ctx context.Context, name string) (bool, error) {
	res, err := m.db.QueryContext(ctx, fmt.Sprintf(`SELECT count(*) AS n FROM %s WHERE model = '%s'`, MetaTable, sqlEscape(name)))
	if err != nil {
		return false, err
	}
	return res.Rows()[0][0].(int64) > 0, nil
}

// Load fetches and deserializes a deployed model, preferring the node-local
// DFS replica when node >= 0. Deserialized models are shared through a
// versioned cache: the block scorers never mutate model state, so one copy
// serves every concurrent query, and Deploy/Redeploy/Drop invalidate it.
func (m *Manager) Load(name string, node int) (any, string, error) {
	e, ok, ver := m.cache.snapshot(name)
	if ok {
		mCacheHits.Inc()
		return e.model, e.kind, nil
	}
	mCacheMisses.Inc()
	if err := faults.Check(faults.SiteModelLoad); err != nil {
		return nil, "", fmt.Errorf("models: load %q: %w", name, err)
	}
	var data []byte
	var err error
	if node >= 0 {
		data, _, err = m.db.DFS().ReadFrom(node, blobPath(name))
	} else {
		data, err = m.db.DFS().Read(blobPath(name))
	}
	if err != nil {
		return nil, "", fmt.Errorf("models: %w: %q not in DFS: %v", verr.ErrModelNotFound, name, err)
	}
	model, kind, err := Deserialize(data)
	if err != nil {
		return nil, "", err
	}
	// Sharded deployments: the blob held only the metadata document; fetch
	// the coefficient shards and assemble the streaming scorer.
	if meta, ok := model.(*ShardedGLMMeta); ok {
		sh, err := m.loadShards(name, node, meta)
		if err != nil {
			return nil, "", err
		}
		model = sh
	}
	m.cache.putIfCurrent(name, ver, cacheEntry{model: model, kind: kind})
	return model, kind, nil
}

// Drop removes a model's blob and metadata.
func (m *Manager) Drop(ctx context.Context, name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	exists, err := m.exists(ctx, name)
	if err != nil {
		return err
	}
	if !exists {
		return fmt.Errorf("models: %w: %q", verr.ErrModelNotFound, name)
	}
	// A sharded deployment owns shard blobs beyond the main one; resolve the
	// layout before the metadata blob disappears.
	shards := 0
	if data, err := m.db.DFS().Read(blobPath(name)); err == nil {
		if meta, _, err := Deserialize(data); err == nil {
			if sm, ok := meta.(*ShardedGLMMeta); ok {
				shards = sm.Shards
			}
		}
	}
	// The SQL subset has no DELETE; rebuild the metadata table without the
	// dropped row (metadata is tiny — Fig. 10 scale). The read comes first:
	// it is the last step ctx can cancel, so a canceled Drop has changed
	// nothing.
	rows, err := m.db.QueryContext(ctx, `SELECT model, owner, type, size, description FROM `+MetaTable)
	if err != nil {
		return err
	}
	if err := m.db.JournalBlobDelete(blobPath(name)); err != nil {
		return err
	}
	for k := 0; k < shards; k++ {
		_ = m.db.JournalBlobDelete(shardPath(name, k))
	}
	m.acl.forget(name)
	m.cache.invalidate(name)
	if err := m.db.ExecContext(ctx, `DROP TABLE `+MetaTable); err != nil {
		return err
	}
	if err := m.db.ExecContext(ctx, `CREATE TABLE `+MetaTable+` (model VARCHAR, owner VARCHAR, type VARCHAR, size INTEGER, description VARCHAR)`); err != nil {
		return err
	}
	for _, r := range rows.Rows() {
		if r[0].(string) == name {
			continue
		}
		ins := fmt.Sprintf(`INSERT INTO %s VALUES ('%s', '%s', '%s', %d, '%s')`,
			MetaTable, sqlEscape(r[0].(string)), sqlEscape(r[1].(string)), r[2].(string), r[3].(int64), sqlEscape(r[4].(string)))
		if err := m.db.ExecContext(ctx, ins); err != nil {
			return err
		}
	}
	return nil
}

// List returns the R_Models rows (model, owner, type, size, description).
func (m *Manager) List(ctx context.Context) ([][]any, error) {
	res, err := m.db.QueryContext(ctx, `SELECT model, owner, type, size, description FROM `+MetaTable+` ORDER BY model`)
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}
