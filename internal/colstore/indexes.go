package colstore

import (
	"fmt"

	"verticadr/internal/colstore/index"
)

// This file attaches secondary B-tree indexes (internal/colstore/index) to
// segments and exposes the per-column statistics the cost-based planner
// feeds on. Row positions are append order — exactly the order Scan
// delivers rows — so an IndexCursor reproduces a filtered scan byte for
// byte.

// indexTree aliases the tree type so segment.go stays free of the subpackage
// import.
type indexTree = index.Tree

// BuildIndex scans column col front to back and attaches a B-tree index
// over it, replacing any previous index on the same column. The tree covers
// every current row, sealed and tail alike; keys reach it unboxed.
func (s *Segment) BuildIndex(col string) error {
	if s.schema.ColIndex(col) < 0 {
		return fmt.Errorf("colstore: index on unknown column %q", col)
	}
	var b index.Builder
	row := uint32(0)
	err := s.Scan([]string{col}, nil, func(batch *Batch) error {
		switch v := batch.Cols[0]; v.Type {
		case TypeInt64:
			index.AddKeys(&b, v.Ints, row)
		case TypeFloat64:
			index.AddKeys(&b, v.Floats, row)
		case TypeString:
			index.AddKeys(&b, v.Strs, row)
		case TypeBool:
			index.AddKeys(&b, v.Bools, row)
		}
		row += uint32(batch.Len())
		return nil
	})
	if err != nil {
		return err
	}
	tree, err := b.Build()
	if err != nil {
		return err
	}
	if s.indexes == nil {
		s.indexes = map[string]*index.Tree{}
	}
	s.indexes[col] = tree
	s.invalidateStats() // NDV becomes exact through the tree
	return nil
}

// Index returns the column's index tree, or nil when none is attached.
func (s *Segment) Index(col string) *index.Tree { return s.indexes[col] }

// SetIndex attaches a prebuilt tree (checkpoint load). The tree must cover
// exactly the segment's current rows; a mismatch reports an error so
// recovery can fall back to rebuilding.
func (s *Segment) SetIndex(col string, tree *index.Tree) error {
	if s.schema.ColIndex(col) < 0 {
		return fmt.Errorf("colstore: index on unknown column %q", col)
	}
	if tree.Rows() != s.rows {
		return fmt.Errorf("colstore: index covers %d rows, segment has %d", tree.Rows(), s.rows)
	}
	if s.indexes == nil {
		s.indexes = map[string]*index.Tree{}
	}
	s.indexes[col] = tree
	s.invalidateStats()
	return nil
}

// DropIndex detaches the column's index (no-op when absent).
func (s *Segment) DropIndex(col string) {
	delete(s.indexes, col)
	s.invalidateStats()
}

// maintainIndexes inserts a just-appended batch's rows into every attached
// tree, keys unboxed. base is the segment's row count before the append.
// Insert is copy-on-write, so clones sharing the old trees keep their view.
func (s *Segment) maintainIndexes(b *Batch, base int) error {
	for col, tree := range s.indexes {
		var err error
		switch v, first := b.Cols[s.schema.ColIndex(col)], uint32(base); v.Type {
		case TypeInt64:
			tree, err = index.InsertKeys(tree, v.Ints, first)
		case TypeFloat64:
			tree, err = index.InsertKeys(tree, v.Floats, first)
		case TypeString:
			tree, err = index.InsertKeys(tree, v.Strs, first)
		case TypeBool:
			tree, err = index.InsertKeys(tree, v.Bools, first)
		}
		if err != nil {
			return err
		}
		s.indexes[col] = tree
	}
	return nil
}

// IndexLookup serves a predicate from the column's index: matching row
// positions in ascending (scan) order. handled is false when no index
// exists or the operator/value cannot be index-served.
func (s *Segment) IndexLookup(pred *Pred) (rows []uint32, handled bool) {
	tree := s.indexes[pred.Col]
	if tree == nil {
		return nil, false
	}
	return tree.Lookup(index.Op(pred.Op), pred.Val)
}

// IndexLookupRange serves a bounded range — a lower-bound predicate and an
// upper-bound predicate over the same column — from that column's index in
// one tree walk. handled is false when no index exists, the predicates name
// different columns, or the tree cannot serve the operators/values.
func (s *Segment) IndexLookupRange(lo, hi *Pred) (rows []uint32, handled bool) {
	if lo.Col != hi.Col {
		return nil, false
	}
	tree := s.indexes[lo.Col]
	if tree == nil {
		return nil, false
	}
	return tree.LookupRange(index.Op(lo.Op), lo.Val, index.Op(hi.Op), hi.Val)
}

// IndexCursor serves the conjunction preds through the index of its probe:
// preds[0] — with preds[1] when probe is 2, the bounded range preds[0] AND
// preds[1] over one column — from that column's index. The result is a
// cursor over the named columns (nil = all) of exactly the rows, in exactly
// the order, a scan under preds delivers. It decodes the selected rows of
// the sealed blocks that hold any — the O(log n + k) access path — and the
// selected tail rows, refined by the predicates after the probe as a scan
// refines its first predicate's selection; untouched blocks count as skipped,
// touched ones as scanned. A segment without a match yields a cursor with
// nothing to deliver whose blocks all count as skipped already. handled is
// false when IndexLookup (IndexLookupRange) cannot serve the probe.
func (s *Segment) IndexCursor(cols []string, preds []Pred, probe int) (c *ScanCursor, handled bool, err error) {
	var rowids []uint32
	if probe == 2 {
		rowids, handled = s.IndexLookupRange(&preds[0], &preds[1])
	} else {
		rowids, handled = s.IndexLookup(&preds[0])
	}
	if !handled {
		return nil, false, nil
	}
	plan, err := s.planScan(cols, preds[probe:])
	if err != nil {
		return nil, true, err
	}
	c = s.newCursor(plan, 0, plan.nblocks, true)
	c.index, c.rowids = true, rowids
	if len(rowids) == 0 {
		c.bi, c.tail, c.st.BlocksSkipped = c.hi, false, c.hi
	}
	return c, true, nil
}

// ColumnStats summarizes one column for cardinality estimation.
type ColumnStats struct {
	Rows     int     // segment row count
	HasRange bool    // Min/Max valid (numeric column, no all-NaN gaps)
	Min, Max float64 // zone-map range over sealed blocks + tail
	// NDV estimates the distinct-value count: exact from an attached index,
	// otherwise summed per-block (dictionary sizes, RLE run counts, plain
	// row counts) and capped at Rows — an overestimate, which biases the
	// planner toward assuming selective equality predicates are selective.
	NDV int
}

// ColumnStats derives the planner's per-column statistics from block
// metadata (and the index when one is attached) without decoding payloads,
// except for a light header walk of RLE/dict blocks. Results are memoized
// per segment until the next mutation, so repeated plans against the same
// published version pay the derivation once.
func (s *Segment) ColumnStats(col string) (ColumnStats, error) {
	s.statsMu.Lock()
	if st, ok := s.statsCache[col]; ok {
		s.statsMu.Unlock()
		return st, nil
	}
	s.statsMu.Unlock()
	st, err := s.columnStatsSlow(col)
	if err != nil {
		return st, err
	}
	s.statsMu.Lock()
	if s.statsCache == nil {
		s.statsCache = map[string]ColumnStats{}
	}
	s.statsCache[col] = st
	s.statsMu.Unlock()
	return st, nil
}

func (s *Segment) columnStatsSlow(col string) (ColumnStats, error) {
	ci := s.schema.ColIndex(col)
	if ci < 0 {
		return ColumnStats{}, fmt.Errorf("colstore: stats on unknown column %q", col)
	}
	st := ColumnStats{Rows: s.rows}
	first := true
	for _, ref := range s.sealed[ci] {
		if !ref.hasStats {
			first = false
			st.HasRange = false
			continue
		}
		if first {
			st.HasRange, st.Min, st.Max = true, ref.min, ref.max
			first = false
		} else if st.HasRange {
			if ref.min < st.Min {
				st.Min = ref.min
			}
			if ref.max > st.Max {
				st.Max = ref.max
			}
		}
	}
	if s.tail.Len() > 0 {
		ok, mn, mx := vectorStats(s.tail.Cols[ci])
		switch {
		case !ok:
			st.HasRange = false
		case first:
			st.HasRange, st.Min, st.Max = true, mn, mx
		case st.HasRange:
			if mn < st.Min {
				st.Min = mn
			}
			if mx > st.Max {
				st.Max = mx
			}
		}
	}
	if tree := s.indexes[col]; tree != nil {
		st.NDV = tree.DistinctKeys()
		return st, nil
	}
	ndv := 0
	for _, ref := range s.sealed[ci] {
		ndv += blockNDV(ref)
	}
	// Tail rows: count exactly (the tail is at most one block).
	if s.tail.Len() > 0 {
		ndv += tailDistinct(s.tail.Cols[ci])
	}
	if ndv > s.rows {
		ndv = s.rows
	}
	st.NDV = ndv
	return st, nil
}

// tailDistinct counts a tail vector's distinct values through typed maps —
// the boxed fallback costs an interface allocation and a typehash per row.
// Distinctness follows Go equality per element type, identical to the boxed
// comparison it replaces: NaNs never coincide, ±0.0 always do.
func tailDistinct(v *Vector) int {
	n := v.Len()
	hint := min(n, 256)
	switch v.Type {
	case TypeInt64:
		seen := make(map[int64]struct{}, hint)
		for _, x := range v.Ints {
			seen[x] = struct{}{}
		}
		return len(seen)
	case TypeFloat64:
		seen := make(map[float64]struct{}, hint)
		nans := 0
		for _, x := range v.Floats {
			if x != x {
				nans++ // NaN is distinct from everything, itself included
				continue
			}
			seen[x] = struct{}{}
		}
		return len(seen) + nans
	case TypeString:
		seen := make(map[string]struct{}, hint)
		for _, x := range v.Strs {
			seen[x] = struct{}{}
		}
		return len(seen)
	case TypeBool:
		seen := [2]bool{}
		for _, x := range v.Bools {
			if x {
				seen[1] = true
			} else {
				seen[0] = true
			}
		}
		ndv := 0
		for _, ok := range seen {
			if ok {
				ndv++
			}
		}
		return ndv
	}
	seen := make(map[any]struct{}, hint)
	for i := 0; i < n; i++ {
		seen[v.Value(i)] = struct{}{}
	}
	return len(seen)
}

// blockNDV estimates one block's distinct count from its header: exact-ish
// for dictionary blocks (dict size) and RLE (run count bounds distinct),
// the row count otherwise. It steps over the runs (rleRun) without making a
// value.
func blockNDV(ref blockRef) int {
	typ, enc, n, rest, err := blockHeader(ref.data, anyType)
	switch {
	case err != nil:
	case enc == EncDict:
		if dn, _, err := dictHeader(rest); err == nil {
			return dn
		}
	case enc == EncRLE:
		runs := 0
		for row := 0; row < n; runs++ {
			run, _, after, err := rleRun(typ, rest, n-row)
			if err != nil {
				return ref.rows
			}
			rest, row = after, row+run
		}
		return runs
	}
	return ref.rows
}
