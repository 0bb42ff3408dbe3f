// Package index implements the secondary-index structure behind CREATE
// INDEX: a copy-on-write B+-tree mapping the distinct keys of one column to
// the ascending row positions holding them. Row positions are append order,
// which is also scan order, so an index lookup followed by a positional
// gather reproduces a filtered full scan byte for byte — the property the
// planner's differential tests pin.
//
// Every key of one tree has one kind (the column's type), and each node
// holds its keys unboxed in one slice of that kind, so a probe bisects a
// node's keys instead of comparing boxed values one by one.
//
// The tree is immutable once published: Insert path-copies from the root, so
// a cloned segment can keep reading the old tree while the owner of a new
// version extends it. Float NaN keys are held in a side list rather than the
// ordered tree, because the engine's comparison (cmpOrdered) reports NaN as
// neither less than nor greater than anything — NaN rows therefore "equal"
// every probe and must surface for =, <= and >= lookups but never for < or >.
package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Op mirrors colstore.CompareOp value for value, so callers convert with a
// plain cast. OpNE is never index-served (a B-tree cannot beat a scan for
// inequality); Lookup reports it unhandled.
type Op uint8

// Comparison operators, in colstore.CompareOp order.
const (
	OpEQ Op = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// fanout bounds leaf and internal node width: nodes split past 2*fanout
// entries and the bulk builder packs them at fanout, leaving slack for
// appends before the first split.
const fanout = 64

// Key kinds. Every non-NaN key of one tree has the same kind, and Encode
// tags each key with it.
const (
	kindInt byte = iota + 1
	kindFloat
	kindString
	kindBool
)

var kindName = [...]string{kindInt: "int64", kindFloat: "float64", kindString: "string", kindBool: "bool"}

// Key is a column value an index can hold, fed unboxed through AddKeys and
// InsertKeys.
type Key interface {
	int64 | float64 | string | bool
}

// stored is what a node keeps: INTEGER keys and bools (as 0/1) in int64,
// FLOAT keys in float64, VARCHAR keys in string.
type stored interface{ int64 | float64 | string }

// node is one tree node. Its keys ascend and are distinct: a leaf's are the
// indexed keys, an internal node's are separators, keys[i] the minimum key
// of childs[i+1], so child i holds the keys in [keys[i-1], keys[i]).
type node[K stored] struct {
	keys   []K
	rows   [][]uint32 // leaf only: rows[i] are keys[i]'s rows, ascending
	childs []*node[K] // internal only
}

// Tree is one column's secondary index. The zero value is not usable; build
// with a Builder or DecodeTree.
type Tree struct {
	kind byte // of every non-NaN key; 0 while there is none
	// root is the root node of the kind's stored type: *node[int64] for
	// kindInt and kindBool, *node[float64] or *node[string]; nil while
	// kind is 0.
	root any
	nan  []uint32 // rows whose float key is NaN, ascending
	rows int      // total rows indexed, NaN rows included
	keys int      // distinct non-NaN keys
}

// Rows returns the number of rows the index covers.
func (t *Tree) Rows() int { return t.rows }

// DistinctKeys returns the number of distinct non-NaN keys — the NDV the
// planner uses for equality selectivity.
func (t *Tree) DistinctKeys() int { return t.keys }

func isNaN(key any) bool {
	f, ok := key.(float64)
	return ok && math.IsNaN(f)
}

func boolKey(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func boolKeys(bs []bool) []int64 {
	out := make([]int64, len(bs))
	for i, b := range bs {
		out[i] = boolKey(b)
	}
	return out
}

func mismatch(have, got byte) error {
	return fmt.Errorf("index: cannot compare %s with %s", kindName[have], kindName[got])
}

// Builder accumulates (key, row) pairs and bulk-builds a packed tree.
// Rows must be added in ascending row order (the natural order when
// indexing a segment front to back).
type Builder struct {
	kind   byte
	ints   []int64 // keys of a kindInt or kindBool build, in the order added
	floats []float64
	strs   []string
	rows   []uint32 // the row of each non-NaN key, in the order added
	nan    []uint32
	err    error
}

// Add records one row's key.
func (b *Builder) Add(key any, row uint32) {
	switch k := key.(type) {
	case int64:
		AddKeys(b, []int64{k}, row)
	case float64:
		AddKeys(b, []float64{k}, row)
	case string:
		AddKeys(b, []string{k}, row)
	case bool:
		AddKeys(b, []bool{k}, row)
	default:
		if b.err == nil {
			b.err = fmt.Errorf("index: cannot index a %T key", key)
		}
	}
}

// AddKeys records keys[i] as row first+i: a column's values, added without
// boxing each one.
func AddKeys[K Key](b *Builder, keys []K, first uint32) {
	switch ks := any(keys).(type) {
	case []int64:
		addAll(b, kindInt, &b.ints, ks, first)
	case []float64:
		addAll(b, kindFloat, &b.floats, ks, first)
	case []string:
		addAll(b, kindString, &b.strs, ks, first)
	case []bool:
		addAll(b, kindBool, &b.ints, boolKeys(ks), first)
	}
}

func addAll[K stored](b *Builder, kind byte, dst *[]K, keys []K, first uint32) {
	for i, k := range keys {
		row := first + uint32(i)
		if k != k { // NaN
			b.nan = append(b.nan, row)
			continue
		}
		if b.kind == 0 {
			b.kind = kind
		}
		if b.kind != kind {
			if b.err == nil {
				b.err = mismatch(b.kind, kind)
			}
			return
		}
		*dst = append(*dst, k)
		b.rows = append(b.rows, row)
	}
}

// Build sorts, groups and packs the accumulated pairs into a tree. Keys must
// all have one kind (one column's values always do); mixed kinds make the
// build fail.
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Tree{nan: b.nan, rows: len(b.rows) + len(b.nan)}
	if len(b.rows) == 0 {
		return t, nil
	}
	t.kind = b.kind
	switch b.kind {
	case kindInt, kindBool:
		t.root, t.keys = build(b.ints, b.rows)
	case kindFloat:
		t.root, t.keys = build(b.floats, b.rows)
	case kindString:
		t.root, t.keys = build(b.strs, b.rows)
	}
	return t, nil
}

type pair[K stored] struct {
	key K
	row uint32
}

// build sorts keys with their rows, groups equal keys (the first row's key
// stands for the group: -0.0 or +0.0, whichever came first) and packs the
// groups into leaves of fanout keys, then stacks internal levels. It returns
// the root and the number of distinct keys; keys must not be empty.
func build[K stored](keys []K, rows []uint32) (*node[K], int) {
	ps := make([]pair[K], len(keys))
	for i, k := range keys {
		ps[i] = pair[K]{k, rows[i]}
	}
	// Rows ascend in add order, so ordering ties by row is a stable sort.
	slices.SortFunc(ps, func(a, b pair[K]) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	ks := make([]K, 0, len(ps))
	flat := make([]uint32, len(ps))
	var lists [][]uint32
	start := 0
	for i, p := range ps {
		flat[i] = p.row
		if i > 0 && p.key == ps[i-1].key {
			continue
		}
		if i > 0 {
			lists = append(lists, flat[start:i:i])
		}
		ks, start = append(ks, p.key), i
	}
	lists = append(lists, flat[start:])
	var level []*node[K]
	var mins []K
	for i := 0; i < len(ks); i += fanout {
		j := min(i+fanout, len(ks))
		level = append(level, &node[K]{keys: ks[i:j:j], rows: lists[i:j:j]})
		mins = append(mins, ks[i])
	}
	for len(level) > 1 {
		var up []*node[K]
		var upMins []K
		for i := 0; i < len(level); i += fanout {
			j := min(i+fanout, len(level))
			up = append(up, &node[K]{keys: mins[i+1 : j : j], childs: level[i:j:j]})
			upMins = append(upMins, mins[i])
		}
		level, mins = up, upMins
	}
	return level[0], len(ks)
}

// Insert returns a new tree containing (key, row); the receiver is
// unchanged. row must exceed every row already indexed for the stored
// per-key row lists to stay ascending (segment appends guarantee this).
func (t *Tree) Insert(key any, row uint32) (*Tree, error) {
	switch k := key.(type) {
	case int64:
		return InsertKeys(t, []int64{k}, row)
	case float64:
		return InsertKeys(t, []float64{k}, row)
	case string:
		return InsertKeys(t, []string{k}, row)
	case bool:
		return InsertKeys(t, []bool{k}, row)
	}
	return nil, fmt.Errorf("index: cannot index a %T key", key)
}

// InsertKeys returns a new tree holding keys[i] at row first+i, the keys
// added without boxing each one; t is unchanged. first must exceed every
// row already indexed, as for Insert.
func InsertKeys[K Key](t *Tree, keys []K, first uint32) (*Tree, error) {
	out := *t
	out.nan = slices.Clip(t.nan)
	var err error
	switch ks := any(keys).(type) {
	case []int64:
		err = insertAll(&out, kindInt, ks, first)
	case []float64:
		err = insertAll(&out, kindFloat, ks, first)
	case []string:
		err = insertAll(&out, kindString, ks, first)
	case []bool:
		err = insertAll(&out, kindBool, boolKeys(ks), first)
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// insertAll adds keys to t, a private copy of a published tree: each key
// path-copies the nodes it changes, so the published tree never moves.
func insertAll[K stored](t *Tree, kind byte, keys []K, first uint32) error {
	for i, k := range keys {
		row := first + uint32(i)
		t.rows++
		if k != k { // NaN
			t.nan = append(t.nan, row)
			continue
		}
		if t.kind == 0 {
			t.kind, t.root = kind, &node[K]{}
		}
		if t.kind != kind {
			return mismatch(t.kind, kind)
		}
		root, sib, sep, added := insertNode(t.root.(*node[K]), k, row)
		if sib != nil {
			root = &node[K]{keys: []K{sep}, childs: []*node[K]{root, sib}}
		}
		t.root = root
		if added {
			t.keys++
		}
	}
	return nil
}

// insertNode path-copies n with (k, row) inserted. When the copy splits it
// returns the right sibling and its separator key. added reports whether the
// key is new to the tree.
func insertNode[K stored](n *node[K], k K, row uint32) (cp, sib *node[K], sep K, added bool) {
	i, found := slices.BinarySearch(n.keys, k)
	if n.childs == nil {
		if found {
			cp = &node[K]{keys: n.keys, rows: slices.Clone(n.rows)}
			cp.rows[i] = append(slices.Clip(cp.rows[i]), row)
			return cp, nil, sep, false
		}
		cp = &node[K]{
			keys: slices.Insert(slices.Clip(n.keys), i, k),
			rows: slices.Insert(slices.Clip(n.rows), i, []uint32{row}),
		}
		if len(cp.keys) > 2*fanout {
			h := len(cp.keys) / 2
			sib = &node[K]{keys: slices.Clip(cp.keys[h:]), rows: slices.Clip(cp.rows[h:])}
			cp.keys, cp.rows = cp.keys[:h:h], cp.rows[:h:h]
			return cp, sib, sib.keys[0], true
		}
		return cp, nil, sep, true
	}
	// A key equal to separator i is child i+1's minimum.
	if found {
		i++
	}
	child, csib, csep, added := insertNode(n.childs[i], k, row)
	cp = &node[K]{keys: n.keys, childs: slices.Clone(n.childs)}
	cp.childs[i] = child
	if csib == nil {
		return cp, nil, sep, added
	}
	cp.keys = slices.Insert(slices.Clip(cp.keys), i, csep)
	cp.childs = slices.Insert(cp.childs, i+1, csib)
	if len(cp.childs) > 2*fanout {
		h := len(cp.childs) / 2
		sep = cp.keys[h-1]
		sib = &node[K]{keys: slices.Clip(cp.keys[h:]), childs: slices.Clip(cp.childs[h:])}
		cp.keys, cp.childs = cp.keys[:h-1:h-1], cp.childs[:h:h]
		return cp, sib, sep, added
	}
	return cp, nil, sep, added
}

// Lookup returns the rows matching `column op val`, sorted ascending —
// identical membership and order to a filtered full scan under the engine's
// comparison semantics (NaN rows surface for =, <= and >=). handled is false
// when the operator or value type cannot be index-served; the caller must
// fall back to a scan.
func (t *Tree) Lookup(op Op, val any) (rows []uint32, handled bool) {
	if op == OpNE {
		return nil, false
	}
	if isNaN(val) {
		// Every stored key compares "equal" to a NaN probe.
		if op == OpEQ || op == OpLE || op == OpGE {
			rows, _ = t.lookup(nil, nil)
		}
		return rows, true
	}
	b := bound{op, val}
	switch op {
	case OpEQ:
		return t.lookup(&bound{OpGE, val}, &bound{OpLE, val})
	case OpLT, OpLE:
		return t.lookup(nil, &b)
	default:
		return t.lookup(&b, nil)
	}
}

// LookupRange returns the rows satisfying `lo AND hi` — a lower bound (> or
// >=) and an upper bound (< or <=) over the same column — in one bounded
// tree walk, sorted ascending. Membership and order match a filtered full
// scan applying both predicates under the engine's comparison semantics.
// handled is false for unsupported operators or incomparable bound values;
// the caller must then fall back to a scan.
func (t *Tree) LookupRange(loOp Op, lo any, hiOp Op, hi any) (rows []uint32, handled bool) {
	if loOp != OpGT && loOp != OpGE {
		return nil, false
	}
	if hiOp != OpLT && hiOp != OpLE {
		return nil, false
	}
	if isNaN(lo) || isNaN(hi) {
		// A NaN bound degenerates ("equal to everything"): not worth a
		// range walk, and unreachable from parsed SQL anyway.
		return nil, false
	}
	return t.lookup(&bound{loOp, lo}, &bound{hiOp, hi})
}

// bound is one side of a probe, `column op val`: a lower bound (OpGT,
// OpGE) or an upper one (OpLT, OpLE).
type bound struct {
	op  Op
	val any
}

// edge is a bound resolved against a tree's keys, in the field of their
// stored type; keys below it are those under val (at or under it when
// past). wide marks an INTEGER tree probed with a FLOAT: each key then
// compares as float64(k) with f, CompareValues' widening.
type edge struct {
	i    int64
	f    float64
	s    string
	past bool
	wide bool
}

// resolve maps b onto the tree's key kind; ok is false when b's value does
// not compare with the keys. A tree without keys serves any value.
func (t *Tree) resolve(b *bound) (e edge, ok bool) {
	// A lower bound's keys start at val, or past it for >; an upper bound's
	// stop at val, or past it for <=.
	e.past = b.op == OpGT || b.op == OpLE
	switch v := b.val.(type) {
	case int64:
		e.i, e.f = v, float64(v)
		ok = t.kind == kindInt || t.kind == kindFloat
	case float64:
		e.f, e.wide = v, t.kind == kindInt
		ok = t.kind == kindInt || t.kind == kindFloat
	case string:
		e.s, ok = v, t.kind == kindString
	case bool:
		e.i, ok = boolKey(v), t.kind == kindBool
	default:
		return e, false
	}
	return e, ok || t.kind == 0
}

// lookup collects the rows between lo and hi (nil: unbounded), NaN rows
// included where both bounds accept equality, sorted ascending.
func (t *Tree) lookup(lo, hi *bound) ([]uint32, bool) {
	var loE, hiE *edge
	if lo != nil {
		e, ok := t.resolve(lo)
		if !ok {
			return nil, false
		}
		loE = &e
	}
	if hi != nil {
		e, ok := t.resolve(hi)
		if !ok {
			return nil, false
		}
		hiE = &e
	}
	out := make([]uint32, 0, 16)
	switch r := t.root.(type) {
	case *node[int64]:
		out = walk(r, loE, hiE, out)
	case *node[float64]:
		out = walk(r, loE, hiE, out)
	case *node[string]:
		out = walk(r, loE, hiE, out)
	}
	// A NaN key compares equal to any bound, so it passes exactly when
	// every bound accepts equality.
	if (lo == nil || lo.op == OpGE) && (hi == nil || hi.op == OpLE) {
		out = append(out, t.nan...)
	}
	slices.Sort(out)
	return out, true
}

// walk appends the rows of n's keys between lo and hi (nil: unbounded) in
// key order, bisecting each node's keys for the span it visits.
func walk[K stored](n *node[K], lo, hi *edge, out []uint32) []uint32 {
	a, b := 0, len(n.keys)
	if hi != nil {
		b = cut(n.keys, hi, hi.past)
	}
	if n.childs == nil {
		if lo != nil {
			a = cut(n.keys, lo, lo.past)
		}
		for _, rows := range n.rows[a:max(a, b)] {
			out = append(out, rows...)
		}
		return out
	}
	// Every key of child i lies below separator i, so a separator below lo
	// rules its child out. One equal to lo does too when comparison is
	// exact, but not under widening: 2^53 and 2^53+1 both compare equal to
	// the FLOAT 2^53. Children past b start at a separator past hi.
	if lo != nil {
		a = cut(n.keys, lo, lo.past || !lo.wide)
	}
	for _, c := range n.childs[a:max(a, b+1)] {
		out = walk(c, lo, hi, out)
	}
	return out
}

// cut returns how many of keys lie below e: the first i with keys[i] >= e,
// or keys[i] > e when past.
func cut[K stored](keys []K, e *edge, past bool) int {
	switch ks := any(keys).(type) {
	case []int64:
		if e.wide {
			// float64 is monotone on int64, so the keys below still form
			// a prefix.
			return sort.Search(len(ks), func(i int) bool {
				k := float64(ks[i])
				return k > e.f || !past && k == e.f
			})
		}
		return search(ks, e.i, past)
	case []float64:
		return search(ks, e.f, past)
	case []string:
		return search(ks, e.s, past)
	}
	return 0
}

// search returns the first i with keys[i] >= v, or keys[i] > v when past.
func search[K stored](keys []K, v K, past bool) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < v || past && keys[m] == v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Encode serializes the tree as a flat (key, rows) dump with delta-encoded
// row lists — the crash-atomic checkpoint format (.vidx). Decoding bulk-
// rebuilds the tree, so the node layout never reaches disk.
func (t *Tree) Encode() []byte {
	out := []byte{1} // version
	out = binary.AppendUvarint(out, uint64(t.keys))
	switch r := t.root.(type) {
	case *node[int64]:
		out = encode(out, t.kind, r)
	case *node[float64]:
		out = encode(out, t.kind, r)
	case *node[string]:
		out = encode(out, t.kind, r)
	}
	return appendRows(out, t.nan)
}

func encode[K stored](out []byte, kind byte, n *node[K]) []byte {
	if n.childs != nil {
		for _, c := range n.childs {
			out = encode(out, kind, c)
		}
		return out
	}
	for i, k := range n.keys {
		out = append(out, kind)
		switch k := any(k).(type) {
		case int64:
			if kind == kindBool {
				out = append(out, byte(k))
			} else {
				out = binary.LittleEndian.AppendUint64(out, uint64(k))
			}
		case float64:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(k))
		case string:
			out = binary.AppendUvarint(out, uint64(len(k)))
			out = append(out, k...)
		}
		out = appendRows(out, n.rows[i])
	}
	return out
}

func appendRows(out []byte, rows []uint32) []byte {
	out = binary.AppendUvarint(out, uint64(len(rows)))
	prev := uint32(0)
	for _, r := range rows {
		out = binary.AppendUvarint(out, uint64(r-prev))
		prev = r
	}
	return out
}

// DecodeTree rebuilds a tree from Encode's output.
func DecodeTree(data []byte) (*Tree, error) {
	if len(data) < 1 || data[0] != 1 {
		return nil, fmt.Errorf("index: bad tree version")
	}
	data = data[1:]
	nkeys, m := binary.Uvarint(data)
	if m <= 0 {
		return nil, fmt.Errorf("index: corrupt tree header")
	}
	data = data[m:]
	var b Builder
	for k := uint64(0); k < nkeys; k++ {
		key, rest, err := cutKey(data)
		if err != nil {
			return nil, err
		}
		rows, rest, err := cutRows(rest)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			b.Add(key, r)
		}
		data = rest
	}
	nan, data, err := cutRows(data)
	if err != nil {
		return nil, err
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("index: %d trailing bytes", len(data))
	}
	b.nan = nan
	return b.Build()
}

func cutKey(data []byte) (any, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("index: truncated key")
	}
	kind := data[0]
	data = data[1:]
	switch kind {
	case kindInt, kindFloat:
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("index: truncated key")
		}
		u := binary.LittleEndian.Uint64(data)
		if kind == kindInt {
			return int64(u), data[8:], nil
		}
		return math.Float64frombits(u), data[8:], nil
	case kindString:
		n, m := binary.Uvarint(data)
		if m <= 0 || uint64(len(data)-m) < n {
			return nil, nil, fmt.Errorf("index: truncated string key")
		}
		return string(data[m : m+int(n)]), data[m+int(n):], nil
	case kindBool:
		if len(data) < 1 {
			return nil, nil, fmt.Errorf("index: truncated key")
		}
		return data[0] != 0, data[1:], nil
	default:
		return nil, nil, fmt.Errorf("index: unknown key kind %d", kind)
	}
}

func cutRows(data []byte) ([]uint32, []byte, error) {
	n, m := binary.Uvarint(data)
	if m <= 0 {
		return nil, nil, fmt.Errorf("index: corrupt row list")
	}
	data = data[m:]
	rows := make([]uint32, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, m := binary.Uvarint(data)
		if m <= 0 {
			return nil, nil, fmt.Errorf("index: corrupt row delta")
		}
		data = data[m:]
		prev += d
		if prev > math.MaxUint32 {
			return nil, nil, fmt.Errorf("index: row %d out of range", prev)
		}
		rows = append(rows, uint32(prev))
	}
	return rows, data, nil
}
