// Package catalog holds the database metadata for the Vertica substitute:
// table definitions and their segmentation schemes. Segmentation decides
// which cluster node stores each row (the paper's table "segments", §3.1);
// the locality-preserving transfer policy later reuses exactly this mapping.
package catalog

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"verticadr/internal/colstore"
	"verticadr/internal/verr"
)

// SegKind enumerates segmentation schemes.
type SegKind uint8

const (
	// SegRoundRobin spreads rows evenly across nodes in arrival order.
	SegRoundRobin SegKind = iota
	// SegHash routes each row by a hash of one column's value. Skewed value
	// distributions produce skewed segments — the situation §3.2 describes.
	SegHash
)

// Segmentation is a table's row-placement scheme.
type Segmentation struct {
	Kind   SegKind
	Column string // used by SegHash
}

// String renders the scheme in DDL-ish form.
func (s Segmentation) String() string {
	switch s.Kind {
	case SegHash:
		return fmt.Sprintf("SEGMENTED BY HASH(%s)", s.Column)
	default:
		return "SEGMENTED BY ROUND ROBIN"
	}
}

// TableDef is the catalog entry for one table.
type TableDef struct {
	Name   string
	Schema colstore.Schema
	Seg    Segmentation
}

// Catalog is a concurrency-safe table registry. In a real MPP database the
// catalog is replicated to every node; here every node shares one instance.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableDef
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*TableDef)}
}

// Validate checks a definition without registering it: shape rules plus a
// name-collision check against the current catalog contents.
func (c *Catalog) Validate(def *TableDef) error {
	if err := validateShape(def); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, ok := c.tables[def.Name]; ok {
		return fmt.Errorf("catalog: table %q already exists", def.Name)
	}
	return nil
}

// ValidateShape checks a definition's state-independent rules (name, column
// set, segmentation column) without a collision check. Write-ahead logging
// uses it to reject a bad CREATE before the redo record is written — the
// collision check there runs against the commit stream's log-end view, not
// the live catalog, so every logged record replays cleanly.
func ValidateShape(def *TableDef) error { return validateShape(def) }

func validateShape(def *TableDef) error {
	if def.Name == "" {
		return fmt.Errorf("catalog: empty table name")
	}
	if len(def.Schema) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", def.Name)
	}
	seen := map[string]bool{}
	for _, col := range def.Schema {
		if seen[col.Name] {
			return fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, def.Name)
		}
		seen[col.Name] = true
	}
	if def.Seg.Kind == SegHash && def.Schema.ColIndex(def.Seg.Column) < 0 {
		return fmt.Errorf("catalog: segmentation column %q not in table %q", def.Seg.Column, def.Name)
	}
	return nil
}

// Create registers a table definition; the name must be unused.
func (c *Catalog) Create(def *TableDef) error {
	if err := validateShape(def); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[def.Name]; ok {
		return fmt.Errorf("catalog: table %q already exists", def.Name)
	}
	c.tables[def.Name] = def
	return nil
}

// Get returns the definition of the named table.
func (c *Catalog) Get(name string) (*TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: %w: %q", verr.ErrTableNotFound, name)
	}
	return def, nil
}

// Drop removes the named table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: %w: %q", verr.ErrTableNotFound, name)
	}
	delete(c.tables, name)
	return nil
}

// List returns the table names in sorted order.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Splitter assigns each row of a batch to one of n nodes according to a
// segmentation scheme. It carries round-robin state across batches so that a
// multi-batch load stays balanced. A mutex guards that state and the
// per-destination index lists it reuses, making concurrent loads into the
// same table safe (they serialize through SplitOwned).
type Splitter struct {
	seg    Segmentation
	nodes  int
	colIdx int

	mu   sync.Mutex
	next int     // round-robin cursor
	dest []int32 // each row's destination, reused across calls
	idxs [][]int // per-destination row indices, reused across calls
}

// NewSplitter builds a splitter for the segmentation over the given schema.
func NewSplitter(seg Segmentation, schema colstore.Schema, nodes int) (*Splitter, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("catalog: splitter needs >=1 node, got %d", nodes)
	}
	s := &Splitter{seg: seg, nodes: nodes, colIdx: -1, idxs: make([][]int, nodes)}
	if seg.Kind == SegHash {
		s.colIdx = schema.ColIndex(seg.Column)
		if s.colIdx < 0 {
			return nil, fmt.Errorf("catalog: segmentation column %q missing from schema", seg.Column)
		}
	}
	return s, nil
}

// SplitOwned partitions the batch into one batch per node, each the caller's
// own: every destination's rows are gathered once, straight into a batch of
// exactly their size, so nothing is shared with the splitter or a later
// split. The write-ahead commit path needs this — a load's batches are read
// twice (WAL encode, then apply) well after SplitOwned returns. Empty
// destinations are nil.
func (s *Splitter) SplitOwned(b *colstore.Batch) ([]*colstore.Batch, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := b.Len()
	s.dest = slices.Grow(s.dest[:0], n)[:n]
	counts := make([]int, s.nodes)
	switch s.seg.Kind {
	case SegRoundRobin:
		for i := range s.dest {
			s.dest[i] = int32(s.next % s.nodes)
			s.next++
			counts[s.dest[i]]++
		}
	case SegHash:
		col := b.Cols[s.colIdx]
		for i := range s.dest {
			s.dest[i] = int32(hashValue(col, i) % uint64(s.nodes))
			counts[s.dest[i]]++
		}
	default:
		return nil, fmt.Errorf("catalog: unknown segmentation kind %d", s.seg.Kind)
	}
	for node := range s.idxs {
		s.idxs[node] = slices.Grow(s.idxs[node][:0], counts[node])
	}
	for i, node := range s.dest {
		s.idxs[node] = append(s.idxs[node], i)
	}
	out := make([]*colstore.Batch, s.nodes)
	for node, idx := range s.idxs {
		if len(idx) == 0 {
			continue
		}
		p := colstore.NewBatchCap(b.Schema, len(idx))
		for c, col := range b.Cols {
			if err := p.Cols[c].AppendGather(col, idx); err != nil {
				return nil, err
			}
		}
		out[node] = p
	}
	return out, nil
}

// hashValue is FNV-1a (64-bit) over row i's value: an INTEGER's or a
// FLOAT's bits as 8 little-endian bytes, a VARCHAR's bytes, a BOOLEAN as one
// byte. It is hash/fnv's New64a, written out so a row hashes without a
// hasher.
func hashValue(v *colstore.Vector, i int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	word := func(x uint64) {
		for k := 0; k < 8; k++ {
			h = (h ^ x&0xff) * prime
			x >>= 8
		}
	}
	switch v.Type {
	case colstore.TypeInt64:
		word(uint64(v.Ints[i]))
	case colstore.TypeFloat64:
		word(math.Float64bits(v.Floats[i]))
	case colstore.TypeString:
		for _, c := range []byte(v.Strs[i]) {
			h = (h ^ uint64(c)) * prime
		}
	case colstore.TypeBool:
		if v.Bools[i] {
			h = (h ^ 1) * prime
		} else {
			h *= prime
		}
	}
	return h
}
