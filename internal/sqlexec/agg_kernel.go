package sqlexec

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"verticadr/internal/colstore"
)

// The aggregation kernel: group keys become dense int32 group IDs through
// typed tables, and every aggregate is one tight loop over a typed column
// indexed by the group-ID vector. Both feeders use it — the run-aware path
// with colstore's block views (runs, dictionary codes or rows), the chunked
// path with 4096-row slices of materialized vectors — and so do the merges:
// a partial's per-group state is itself a block whose entries are groups.

// IDs the key tables hand out in place of a dense ID.
const (
	idAbsent int32 = -1 // probing: the key was never interned
	idNaN    int32 = -2 // join keys: NaN, which equals every key
	idUnset  int32 = -3 // scratch: a dictionary code not yet resolved
)

// u64Table interns uint64 keys as dense IDs in insertion order: open
// addressing with linear probing at a load factor of at most one half.
type u64Table struct {
	keys  []uint64
	ids   []int32 // ID+1; 0 marks an empty slot
	shift uint8   // 64 - log2(len(keys))
	n     int32
}

func (t *u64Table) slot(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> t.shift) }

// find returns k's ID, or idAbsent.
func (t *u64Table) find(k uint64) int32 {
	if t.n == 0 {
		return idAbsent
	}
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		switch id := t.ids[i]; {
		case id == 0:
			return idAbsent
		case t.keys[i] == k:
			return id - 1
		}
	}
}

// intern returns k's ID, handing out the next one when k is new.
func (t *u64Table) intern(k uint64) int32 { return t.put(k, t.n) }

// put returns k's ID, giving it next when k is new.
func (t *u64Table) put(k uint64, next int32) int32 {
	if int(t.n)*2 >= len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		switch id := t.ids[i]; {
		case id == 0:
			t.n++
			t.keys[i], t.ids[i] = k, next+1
			return next
		case t.keys[i] == k:
			return id - 1
		}
	}
}

func (t *u64Table) grow() {
	size := 64
	if len(t.keys) > 0 {
		size = 2 * len(t.keys)
	}
	keys, ids := t.keys, t.ids
	t.keys, t.ids = make([]uint64, size), make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i, id := range ids {
		if id == 0 {
			continue
		}
		j := t.slot(keys[i])
		for t.ids[j] != 0 {
			j = (j + 1) & (size - 1)
		}
		t.keys[j], t.ids[j] = keys[i], id
	}
}

// nanKey is the one key every NaN groups under.
var nanKey = math.Float64bits(math.NaN())

// keyInterner maps one key column's values to dense IDs, handed out in
// first-appearance order. A column has one type, so only one of the typed
// tables is ever populated.
//
// INTEGER keys under exact identity — every GROUP BY column, INTEGER =
// INTEGER join keys — meet a direct-offset array before the hash: the first
// INTEGER block the interner inserts sets the span [base, base+len(dense))
// to that block's [min, max] when it is narrow enough (takeSpan), and a key
// inside it is a bounds check and a load. A key inserted outside the span
// widens it while no key has been hashed yet (widen); any other key takes
// the hash table. Both hand out IDs from one counter, so an ID is the key's
// rank in first-appearance order whichever way the key went.
type keyInterner struct {
	// join selects join-key equality for numeric columns — integers widen
	// to float64, -0.0 and +0.0 coincide, NaN gets idNaN — in place of
	// group identity, where every NaN is the same key and the two zeros
	// are distinct keys (what rendering the key with %v distinguished).
	join bool

	spanned bool    // the first INTEGER block was inserted: the span is decided
	base    int64   // the key in dense[0]
	dense   []int32 // ID+1 of key base+i; 0 marks a key not yet seen
	n       int32   // IDs handed out to INTEGER and FLOAT keys, dense and hashed
	seen    int     // INTEGER keys inserted, the rows of every block

	words   u64Table // INTEGER values outside the span, FLOAT bit patterns
	strs    map[string]int32
	bools   [2]int32 // ID+1 of false and of true
	nbools  int32
	codeIDs []int32 // scratch: one dictionary block's code → ID
}

// n INTEGER keys over [lo, hi] get a dense array when its hi-lo+1 slots are
// at most denseSlotsPerKey*n + denseSlack and at most denseMaxSlots: never
// much larger than the hash table the keys would fill.
const (
	denseSlotsPerKey = 4
	denseSlack       = 64
	denseMaxSlots    = 64 << 10
)

// len returns the number of IDs handed out.
func (t *keyInterner) len() int { return int(t.n) + len(t.strs) + int(t.nbools) }

func (t *keyInterner) word(k uint64, insert bool) int32 {
	if !insert {
		return t.words.find(k)
	}
	id := t.words.put(k, t.n)
	if id == t.n {
		t.n++
	}
	return id
}

// spanLimit is the most slots a dense array may have for the keys seen.
func (t *keyInterner) spanLimit() uint64 {
	return uint64(min(denseSlotsPerKey*t.seen+denseSlack, denseMaxSlots))
}

// takeSpan decides the span from the first non-empty INTEGER block inserted.
// hi-lo is computed in uint64, where it cannot overflow.
func (t *keyInterner) takeSpan(xs []int64) {
	t.spanned = true
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	if uint64(hi)-uint64(lo) < t.spanLimit() {
		t.base, t.dense = lo, make([]int32, uint64(hi)-uint64(lo)+1)
	}
}

// widen moves the span's edge on x's side past x, a key being inserted
// outside it, as far as spanLimit allows, and reports whether it did. ints
// calls it only while no key has been hashed, so that every ID handed out
// stays in the span. The span at least doubles, up to that limit, so keys
// arriving one past an edge widen it a logarithmic number of times. Offsets
// wrap as in ints: the distances above and below hold at either end of
// int64. IDs stay where they are.
func (t *keyInterner) widen(x int64) bool {
	if len(t.dense) == 0 {
		return false
	}
	s, limit := uint64(len(t.dense)), t.spanLimit()
	up, down := uint64(x-t.base)-s+1, uint64(t.base-x)
	if s+min(up, down) > limit {
		return false
	}
	size := min(limit, max(s+min(up, down), 2*s))
	dense := make([]int32, size)
	if up <= down {
		copy(dense, t.dense)
	} else {
		t.base -= int64(size - s)
		copy(dense[size-s:], t.dense)
	}
	t.dense = dense
	return true
}

// ints writes the IDs of INTEGER keys under exact identity. x-base wraps, so
// no key outside the span, MinInt64 and MaxInt64 included, lands in it.
func (t *keyInterner) ints(xs []int64, out []int32, insert bool) {
	if insert && len(xs) > 0 {
		t.seen += len(xs)
		if !t.spanned {
			t.takeSpan(xs)
		}
	}
	dense, base := t.dense, t.base
	for i, x := range xs {
		o := uint64(x - base)
		if o >= uint64(len(dense)) && insert && t.words.n == 0 && t.widen(x) {
			dense, base = t.dense, t.base
			o = uint64(x - base)
		}
		switch {
		case o >= uint64(len(dense)):
			out[i] = t.word(uint64(x), insert)
		case dense[o] != 0:
			out[i] = dense[o] - 1
		case insert:
			t.n++
			dense[o] = t.n
			out[i] = t.n - 1
		default:
			out[i] = idAbsent
		}
	}
}

func (t *keyInterner) str(s string, insert bool) int32 {
	if id, ok := t.strs[s]; ok {
		return id
	}
	if !insert {
		return idAbsent
	}
	if t.strs == nil {
		t.strs = map[string]int32{}
	}
	id := int32(len(t.strs))
	t.strs[s] = id
	return id
}

func (t *keyInterner) flag(b bool, insert bool) int32 {
	i := 0
	if b {
		i = 1
	}
	if t.bools[i] == 0 {
		if !insert {
			return idAbsent
		}
		t.nbools++
		t.bools[i] = t.nbools
	}
	return t.bools[i] - 1
}

// ids writes the ID of every entry of col to out. With insert unset unknown
// keys get idAbsent and the table is left alone (the probe side of a join).
// A dictionary block resolves each code once, a run of equal strings once.
func (t *keyInterner) ids(col colstore.BlockCol, out []int32, insert bool) {
	v := col.Vals
	switch {
	case col.Codes != nil:
		if cap(t.codeIDs) < len(v.Strs) {
			t.codeIDs = make([]int32, len(v.Strs))
		}
		codeIDs := t.codeIDs[:len(v.Strs)]
		for i := range codeIDs {
			codeIDs[i] = idUnset
		}
		for i, c := range col.Codes {
			id := codeIDs[c]
			if id == idUnset {
				id = t.str(v.Strs[c], insert)
				codeIDs[c] = id
			}
			out[i] = id
		}
	case v.Type == colstore.TypeString:
		for i, s := range v.Strs {
			if i > 0 && s == v.Strs[i-1] {
				out[i] = out[i-1]
				continue
			}
			out[i] = t.str(s, insert)
		}
	case v.Type == colstore.TypeBool:
		for i, b := range v.Bools {
			out[i] = t.flag(b, insert)
		}
	case v.Type == colstore.TypeInt64 && !t.join:
		t.ints(v.Ints, out, insert)
	case v.Type == colstore.TypeInt64:
		for i, x := range v.Ints {
			out[i] = t.word(math.Float64bits(float64(x)), insert)
		}
	case !t.join:
		for i, x := range v.Floats {
			k := math.Float64bits(x)
			if x != x {
				k = nanKey
			}
			out[i] = t.word(k, insert)
		}
	default:
		for i, x := range v.Floats {
			switch {
			case x != x:
				out[i] = idNaN
			case x == 0:
				out[i] = t.word(0, insert) // -0.0 joins +0.0
			default:
				out[i] = t.word(math.Float64bits(x), insert)
			}
		}
	}
}

// groupTable maps a block's key columns to group IDs, handed out in
// first-appearance order. Each column has its own interner; a multi-column
// key is the pair (ID of the columns before, ID in this column) interned
// again, one pair table per extra column — fixed-width, injective, no bytes.
type groupTable struct {
	cols  []keyInterner
	pairs []u64Table
	n     int // groups so far
}

// aggScratch is the per-block working memory of fold and merge, pooled so
// that the one-partial-per-chunk tree does not hold a copy per chunk.
type aggScratch struct {
	gid, part []int32   // each entry's group ID; its ID within one key column
	fresh     []int     // entries that opened a group
	strs      []string  // a dictionary-coded MIN/MAX argument, flattened
	vals      []float64 // a SUM argument's runs, folded
}

var aggScratchPool = sync.Pool{New: func() any { return new(aggScratch) }}

// assign returns the group ID of each of n > 0 entries, in sc.gid.
func (t *groupTable) assign(keys []colstore.BlockCol, n int, sc *aggScratch) []int32 {
	if cap(sc.gid) < n {
		sc.gid = make([]int32, n)
	}
	if cap(sc.part) < n {
		sc.part = make([]int32, n)
	}
	gid, part := sc.gid[:n], sc.part[:n]
	if len(keys) == 0 {
		clear(gid)
		t.n = 1
		return gid
	}
	if t.cols == nil {
		t.cols, t.pairs = make([]keyInterner, len(keys)), make([]u64Table, len(keys)-1)
	}
	t.cols[0].ids(keys[0], gid, true)
	t.n = t.cols[0].len()
	for c := 1; c < len(keys); c++ {
		t.cols[c].ids(keys[c], part, true)
		pairs := &t.pairs[c-1]
		for i, g := range gid {
			gid[i] = pairs.intern(uint64(g)<<32 | uint64(part[i]))
		}
		t.n = int(pairs.n)
	}
	return gid
}

// keySpan returns the slots of the first key column's dense span, 0 for none.
func (t *groupTable) keySpan() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0].dense)
}

// spanText names a key path for PROFILE: "dense span N", or "hashed".
func spanText(slots int) string {
	if slots == 0 {
		return "hashed"
	}
	return fmt.Sprintf("dense span %d", slots)
}

// aggItemAcc is one projection item's dense per-group state.
type aggItemAcc struct {
	fn  string           // "" for a group-column item
	sum []float64        // SUM, AVG
	ext *colstore.Vector // MIN, MAX: each group's extreme so far, in the argument's type
}

// aggPartialAcc is an Aggregate node's accumulated, not yet finalized state,
// dense and typed: group g's key values are keys[*][g], its row count is
// count[g] (every aggregate over the group counted the same rows) and item
// pi's state is items[pi].sum[g] or items[pi].ext[g]. IDs follow first
// appearance, so index order is output order. Local execution finalizes it
// (buildAggOutput); a cluster peer ships it to the router as a batch.
type aggPartialAcc struct {
	plans    []aggItemPlan
	outTypes []colstore.Type

	table groupTable
	keys  []*colstore.Vector
	count []int64
	items []aggItemAcc

	op  *opTimer // the open "aggregate" operator; done ends it
	how string   // what was folded: "N chunks" or "N runs (run-aware)"
}

// newAggPartialAcc returns the state of zero groups: empty key columns of
// keyTypes and, for MIN and MAX, an empty extreme column of the item's type.
func newAggPartialAcc(plans []aggItemPlan, keyTypes, outTypes []colstore.Type) *aggPartialAcc {
	p := &aggPartialAcc{
		plans:    plans,
		outTypes: outTypes,
		keys:     make([]*colstore.Vector, len(keyTypes)),
		items:    make([]aggItemAcc, len(plans)),
	}
	for i, t := range keyTypes {
		p.keys[i] = colstore.NewVector(t, 0)
	}
	for pi, pl := range plans {
		if pl.fn == nil {
			continue
		}
		p.items[pi].fn = pl.fn.Name
		if pl.fn.Name == "MIN" || pl.fn.Name == "MAX" {
			p.items[pi].ext = colstore.NewVector(outTypes[pi], 0)
		}
	}
	return p
}

// done ends the aggregate operator, reporting rows output rows.
func (p *aggPartialAcc) done(rows int) {
	p.op.done(int64(rows), func() string { return fmt.Sprintf("%d groups, %d aggregates, %s", rows, len(p.plans), p.how) })
}

// aggBlock is one block of kernel input: n entries, entry i standing for
// runs[i] rows (one row each when runs is nil) that agree in every column.
type aggBlock struct {
	n    int
	runs []int32
	keys []colstore.BlockCol // the GROUP BY columns
	args []colstore.BlockCol // by projection item; zero for COUNT(*) and group columns
}

// appendEntries appends col's values at the given entries to dst.
func appendEntries(dst *colstore.Vector, col colstore.BlockCol, entries []int) error {
	if col.Codes == nil {
		return dst.AppendGather(col.Vals, entries)
	}
	if dst.Type != colstore.TypeString {
		return fmt.Errorf("sqlexec: gather %v vector into %v vector", colstore.TypeString, dst.Type)
	}
	for _, i := range entries {
		dst.Strs = append(dst.Strs, col.Vals.Strs[col.Codes[i]])
	}
	return nil
}

// admit returns the group ID of each of n > 0 entries, identified by the key
// columns. A group met for the first time gets the next ID and its dense
// state: the keys' values at the entry that opened it, a zero count and zero
// sums, and first[pi]'s value at that entry as each MIN/MAX item's extreme —
// so the extreme loops need no "first value" case: comparing that entry with
// itself replaces nothing.
func (p *aggPartialAcc) admit(n int, keys, first []colstore.BlockCol, sc *aggScratch) ([]int32, error) {
	base := len(p.count)
	gid := p.table.assign(keys, n, sc)
	if p.table.n == base {
		return gid, nil
	}
	// IDs are handed out in entry order: group base+k opened at the first
	// entry that carries ID base+k.
	fresh := sc.fresh[:0]
	for i, g := range gid {
		if int(g) == base+len(fresh) {
			if fresh = append(fresh, i); base+len(fresh) == p.table.n {
				break
			}
		}
	}
	sc.fresh = fresh
	for i, k := range keys {
		if err := appendEntries(p.keys[i], k, fresh); err != nil {
			return nil, err
		}
	}
	p.count = append(p.count, make([]int64, len(fresh))...)
	for pi := range p.items {
		it := &p.items[pi]
		switch it.fn {
		case "SUM", "AVG":
			it.sum = append(it.sum, make([]float64, len(fresh))...)
		case "MIN", "MAX":
			if err := appendEntries(it.ext, first[pi], fresh); err != nil {
				return nil, err
			}
		}
	}
	return gid, nil
}

// fold accumulates one block. Per group, rows are folded in block order, so
// a feeder that presents blocks in row order adds each group's floats in row
// order.
func (p *aggPartialAcc) fold(b *aggBlock) error {
	if b.n == 0 {
		return nil
	}
	for pi := range p.items {
		if fn := p.items[pi].fn; fn == "SUM" || fn == "AVG" {
			switch b.args[pi].Vals.Type {
			case colstore.TypeString:
				return fmt.Errorf("sqlexec: %s over non-numeric value string", fn)
			case colstore.TypeBool:
				return fmt.Errorf("sqlexec: %s over non-numeric value bool", fn)
			}
		}
	}
	sc := aggScratchPool.Get().(*aggScratch)
	defer aggScratchPool.Put(sc)
	gid, err := p.admit(b.n, b.keys, b.args, sc)
	if err != nil {
		return err
	}
	if b.runs == nil {
		for _, g := range gid {
			p.count[g]++
		}
	} else {
		for i, g := range gid {
			p.count[g] += int64(b.runs[i])
		}
	}
	for pi := range p.items {
		it, arg := &p.items[pi], b.args[pi]
		switch it.fn {
		case "SUM", "AVG":
			foldSum(it.sum, gid, arg.Vals, b.runs, sc)
		case "MIN", "MAX":
			x := arg.Vals
			if arg.Codes != nil {
				sc.strs = sc.strs[:0]
				for _, c := range arg.Codes {
					sc.strs = append(sc.strs, x.Strs[c])
				}
				x = colstore.StringVector(sc.strs)
			}
			foldExtreme(it.ext, gid, x, it.fn == "MAX")
		}
	}
	return nil
}

// merge folds b's groups into p: b's per-group state is a block whose
// entries are its groups, admitted under its key columns and added with the
// loops fold uses — between the chunks of one node and between the shards of
// a cluster alike. Entries arrive in b's group order, so merging partials in
// order composes their first-appearance orders into the serial one, and each
// group's sums add in merge order.
func (p *aggPartialAcc) merge(b *aggPartialAcc) error {
	n := len(b.count)
	if n == 0 {
		return nil
	}
	keys := make([]colstore.BlockCol, len(b.keys))
	for i, k := range b.keys {
		keys[i].Vals = k
	}
	first := make([]colstore.BlockCol, len(b.items))
	for pi := range b.items {
		first[pi].Vals = b.items[pi].ext
	}
	sc := aggScratchPool.Get().(*aggScratch)
	defer aggScratchPool.Put(sc)
	gid, err := p.admit(n, keys, first, sc)
	if err != nil {
		return err
	}
	for j, g := range gid {
		p.count[g] += b.count[j]
	}
	for pi := range p.items {
		it, from := &p.items[pi], &b.items[pi]
		switch it.fn {
		case "SUM", "AVG":
			// A group new to p starts at +0.0, and +0.0 + s is s to the bit:
			// a sum is never -0.0 (it started at +0.0 itself).
			addFloats(it.sum, gid, from.sum)
		case "MIN", "MAX":
			foldExtreme(it.ext, gid, from.ext, it.fn == "MAX")
		}
	}
	return nil
}

// addFloats adds each entry's value to its group's sum. Every float addition
// that can meet a NaN goes through this one loop — rows, folded runs and
// merged partials alike — because which NaN the sum of two NaNs keeps (a
// group holding a NaN and an Inf-Inf) follows the machine's operand order:
// one instruction sequence gives every feeder the same answer.
func addFloats(sum []float64, gid []int32, xs []float64) {
	for i, g := range gid {
		sum[g] += xs[i]
	}
}

// foldSum adds a block's argument column to the group sums. An entry of
// n > 1 identical rows adds x*n, which matches n iterated additions bitwise
// for values exact in float64 (the contract in DESIGN.md §12 — NaN and
// signed-zero runs propagate identically either way: x*n is NaN iff x is,
// and ±0.0 accumulation keeps the IEEE sign rules of repeated addition
// since the sum starts at +0.0).
//
// The one place the product is NOT equivalent is when x is finite but x*n
// overflows to ±Inf: iterated addition may never overflow (a negative sum
// can absorb the run, or an already-infinite sum stays put where sum+Inf
// would go NaN), so that entry adds x n times. An infinite x folds safely —
// sum+Inf repeated n times equals one add.
func foldSum(sum []float64, gid []int32, x *colstore.Vector, runs []int32, sc *aggScratch) {
	switch {
	case runs == nil && x.Type == colstore.TypeFloat64:
		addFloats(sum, gid, x.Floats)
		return
	case runs == nil:
		for i, g := range gid {
			sum[g] += float64(x.Ints[i]) // never NaN
		}
		return
	}
	ids, vals := sc.part[:0], sc.vals[:0]
	for i, g := range gid {
		var v float64
		if x.Type == colstore.TypeFloat64 {
			v = x.Floats[i]
		} else {
			v = float64(x.Ints[i])
		}
		n := runs[i]
		if prod := v * float64(n); !math.IsInf(prod, 0) || math.IsInf(v, 0) {
			v, n = prod, 1
		}
		for ; n > 0; n-- {
			ids, vals = append(ids, g), append(vals, v)
		}
	}
	addFloats(sum, ids, vals)
	sc.part, sc.vals = ids, vals
}

// foldExtreme replaces each entry's group extreme when the entry is strictly
// smaller (larger, for max). Strict < and > are colstore.CompareValues'
// order: ±0.0 coincide and NaN neither replaces nor is replaced.
func foldExtreme(ext *colstore.Vector, gid []int32, x *colstore.Vector, max bool) {
	switch ext.Type {
	case colstore.TypeInt64:
		foldOrdered(ext.Ints, gid, x.Ints, max)
	case colstore.TypeFloat64:
		foldOrdered(ext.Floats, gid, x.Floats, max)
	case colstore.TypeString:
		foldOrdered(ext.Strs, gid, x.Strs, max)
	case colstore.TypeBool:
		for i, g := range gid {
			if x.Bools[i] == max {
				ext.Bools[g] = max // true is the largest BOOLEAN, false the smallest
			}
		}
	}
}

func foldOrdered[T int64 | float64 | string](ext []T, gid []int32, xs []T, max bool) {
	if max {
		for i, g := range gid {
			if xs[i] > ext[g] {
				ext[g] = xs[i]
			}
		}
		return
	}
	for i, g := range gid {
		if xs[i] < ext[g] {
			ext[g] = xs[i]
		}
	}
}
