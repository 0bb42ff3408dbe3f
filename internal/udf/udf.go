// Package udf is the user-defined function framework of the Vertica
// substitute. The paper's integration is built almost entirely out of UDFs:
// ExportToDistributedR performs the fast-transfer export (§3, Fig. 4), and
// KmeansPredict / GlmPredict / RfPredict run in-database prediction (§5).
// Transform functions (UDTFs) process one table partition at a time and are
// invoked with Vertica's OVER (PARTITION BY ... | PARTITION BEST) syntax;
// the query planner spawns one instance per partition, in parallel.
package udf

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"verticadr/internal/colstore"
)

// Params is the USING PARAMETERS key-value list, with lower-cased keys.
type Params map[string]any

// String fetches a required string parameter.
func (p Params) String(key string) (string, error) {
	v, ok := p[key]
	if !ok {
		return "", fmt.Errorf("udf: missing required parameter %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("udf: parameter %q must be a string, got %T", key, v)
	}
	return s, nil
}

// StringOr fetches an optional string parameter with a default.
func (p Params) StringOr(key, def string) string {
	if s, err := p.String(key); err == nil {
		return s
	}
	return def
}

// Int fetches a required integer parameter (accepting float64 with integral
// value, since SQL literals may arrive either way).
func (p Params) Int(key string) (int64, error) {
	v, ok := p[key]
	if !ok {
		return 0, fmt.Errorf("udf: missing required parameter %q", key)
	}
	switch x := v.(type) {
	case int64:
		return x, nil
	case float64:
		if x == float64(int64(x)) {
			return int64(x), nil
		}
	}
	return 0, fmt.Errorf("udf: parameter %q must be an integer, got %v", key, v)
}

// IntOr fetches an optional integer parameter with a default.
func (p Params) IntOr(key string, def int64) int64 {
	if n, err := p.Int(key); err == nil {
		return n
	}
	return def
}

// Ctx is the execution context handed to each transform-function instance.
type Ctx struct {
	Params Params
	// InSchema is the resolved argument schema — the columns every input
	// batch will carry, in call order — known before the first batch, so a
	// function can reject a call whatever its partition holds.
	InSchema colstore.Schema
	NodeID   int // database node this instance runs on
	NumNodes int
	Instance int // instance index within the node (0-based)
	// Services exposes database-side extension points by name (for example
	// "dfs" → the node's distributed-file-system client, "models" → the model
	// manager). UDFs type-assert what they need.
	Services map[string]any
}

// Service fetches a named service or errors with a helpful message.
func (c *Ctx) Service(name string) (any, error) {
	if c.Services == nil {
		return nil, fmt.Errorf("udf: no services available (wanted %q)", name)
	}
	s, ok := c.Services[name]
	if !ok {
		return nil, fmt.Errorf("udf: service %q not registered", name)
	}
	return s, nil
}

// BatchReader streams a partition's rows to the UDF. Next returns nil at the
// end of the partition. The returned batch is only valid until the next Next
// call — readers may reuse the batch and its column headers; a UDF that
// needs rows later must copy them.
type BatchReader interface {
	Next() (*colstore.Batch, error)
}

// StoredReader is the one optional capability of a BatchReader: a reader
// whose rows sit in sealed storage blocks can hand a block row over as
// stored. It is for a function that moves its input on without looking at
// the values (the transfer export); a function that computes on values calls
// Next.
type StoredReader interface {
	BatchReader
	// MaxRows bounds the rows the reader has yet to deliver.
	MaxRows() int
	// NextStored returns the partition's next rows in one of two forms. When
	// they are a sealed block row of at most maxRows rows that reaches the
	// function unfiltered, and every argument is a bare column, it returns
	// one encoded block per argument (colstore.DecodeBlockInto reads them)
	// and their row count. Otherwise it returns the batch Next would. All
	// nil is the end of the partition. The blocks are storage itself —
	// read-only, never to be recycled into a pool — and the slice holding
	// them is valid until the next call, like a batch.
	NextStored(maxRows int) (blocks [][]byte, rows int, b *colstore.Batch, err error)
}

// BatchWriter receives the UDF's output rows. Write must not retain b past
// the call — the mirror of BatchReader's contract: the writer copies what it
// keeps, so the UDF may reset and reuse the batch and its backing arrays for
// its next block.
type BatchWriter interface {
	Write(b *colstore.Batch) error
}

// Transform is a user-defined transform function (Vertica UDTF).
type Transform interface {
	// OutputSchema resolves the output schema given the input schema (the
	// UDTF's argument columns, in call order) and parameters.
	OutputSchema(in colstore.Schema, params Params) (colstore.Schema, error)
	// ProcessPartition consumes one partition and writes output rows.
	ProcessPartition(ctx *Ctx, in BatchReader, out BatchWriter) error
}

// Factory creates a fresh Transform instance (one per partition/instance).
type Factory func() Transform

// Registry maps function names to factories. A Registry is safe for
// concurrent use.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: make(map[string]Factory)}
}

// Register adds a transform factory under a case-insensitive name.
func (r *Registry) Register(name string, f Factory) error {
	key := strings.ToUpper(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[key]; ok {
		return fmt.Errorf("udf: function %q already registered", name)
	}
	r.funcs[key] = f
	return nil
}

// Lookup finds a factory by case-insensitive name.
func (r *Registry) Lookup(name string) (Factory, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("udf: unknown function %q", name)
	}
	return f, nil
}

// Names lists registered function names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.funcs))
	for k := range r.funcs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SliceReader adapts an in-memory batch list to a BatchReader.
type SliceReader struct {
	batches []*colstore.Batch
	i       int
}

// NewSliceReader wraps batches.
func NewSliceReader(batches ...*colstore.Batch) *SliceReader {
	return &SliceReader{batches: batches}
}

// Next implements BatchReader.
func (s *SliceReader) Next() (*colstore.Batch, error) {
	if s.i >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.i]
	s.i++
	return b, nil
}

// AppendWriter accumulates written rows by value into one owned batch. Not
// safe for concurrent use: give each partition its own AppendWriter and
// merge the results in partition order for deterministic output.
type AppendWriter struct {
	Out *colstore.Batch
}

// NewAppendWriter returns a writer accumulating into an empty batch of the
// given schema.
func NewAppendWriter(schema colstore.Schema) *AppendWriter {
	return &AppendWriter{Out: colstore.NewBatch(schema)}
}

// Write implements BatchWriter; the batch is copied, never retained.
func (a *AppendWriter) Write(b *colstore.Batch) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("udf: output batch invalid: %w", err)
	}
	return a.Out.AppendBatch(b)
}
