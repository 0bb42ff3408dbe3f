package colstore

import (
	"fmt"
	"math"
)

// Comparison semantics, shared by pushed-down predicates and the executor's
// comparisons: INTEGER and FLOAT compare numerically (an INTEGER widened to
// float64), strings and booleans only with their own type, and the order is
// cmpOrdered's — a NaN is neither below nor above anything, so it compares
// equal to every value, and -0 equals +0. The typed kernels below reproduce
// CompareValues exactly without boxing a value, with the operator's switch
// hoisted out of the row loop.

// CompareOp is a comparison operator for pushed-down predicates.
type CompareOp uint8

// Comparison operators.
const (
	OpEQ CompareOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// ParseCompareOp maps an SQL comparison operator to its CompareOp.
func ParseCompareOp(s string) (CompareOp, bool) {
	for op := OpEQ; op <= OpGE; op++ {
		if op.String() == s {
			return op, true
		}
	}
	return 0, false
}

// Pred is a single-column comparison predicate that scans can push down to
// skip blocks via zone maps and filter rows without materializing them.
type Pred struct {
	Col string
	Op  CompareOp
	Val any // int64, float64, string or bool
}

// String renders the predicate as SQL.
func (p Pred) String() string { return fmt.Sprintf("%s %s %v", p.Col, p.Op, p.Val) }

// ValueType is the column type of a boxed value (int64, float64, string or
// bool), TypeInvalid for anything else.
func ValueType(v any) Type {
	switch v.(type) {
	case int64:
		return TypeInt64
	case float64:
		return TypeFloat64
	case string:
		return TypeString
	case bool:
		return TypeBool
	}
	return TypeInvalid
}

// CheckComparable returns the error CompareValues reports for values of types
// a and b, or nil when such values compare: both numeric, or one type.
func CheckComparable(a, b Type) error {
	numeric := func(t Type) bool { return t == TypeInt64 || t == TypeFloat64 }
	if a == b && a != TypeInvalid || numeric(a) && numeric(b) {
		return nil
	}
	return fmt.Errorf("colstore: cannot compare %s with %s", goType(a), goType(b))
}

// goType is the Go type a column type's values box to, as %T prints it.
func goType(t Type) string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	}
	return "<nil>"
}

// Match reports whether a three-way comparison result c (CompareValues')
// satisfies the operator.
func (op CompareOp) Match(c int) bool {
	switch op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	}
	return false
}

// selectRows keeps the rows of v that satisfy the predicate — of every row
// when sel is nil, else of the ascending rows sel lists — appending them to
// out[:0] (callers reuse one slice across blocks, so a scan allocates no
// index slice per block once warm). out may share sel's array: a selection
// refines in place, since a kept row is never written ahead of the row being
// read. It compares row by row, since planScan makes every ordered
// comparison with a literal of its column's type an interval: what reaches
// here is <>, a FLOAT literal on an INTEGER column, a BOOLEAN comparison or
// a pair that fails with CompareValues' error, when there is a row.
func (p *Pred) selectRows(v *Vector, sel, out []int) ([]int, error) {
	val := p.Val
	if x, ok := val.(int64); ok && v.Type == TypeFloat64 {
		val = float64(x)
	}
	var cmp func(i int) int // row i against the literal, as CompareValues orders them
	switch val := val.(type) {
	case int64:
		if v.Type == TypeInt64 {
			cmp = func(i int) int { return cmpOrdered(v.Ints[i], val) }
		}
	case float64:
		switch v.Type {
		case TypeInt64:
			cmp = func(i int) int { return cmpOrdered(float64(v.Ints[i]), val) }
		case TypeFloat64:
			cmp = func(i int) int { return cmpOrdered(v.Floats[i], val) }
		}
	case string:
		if v.Type == TypeString {
			cmp = func(i int) int { return cmpOrdered(v.Strs[i], val) }
		}
	case bool:
		if v.Type == TypeBool {
			cmp = func(i int) int { return cmpOrdered(boolInt(v.Bools[i]), boolInt(val)) }
		}
	}
	out, n := out[:0], v.Len()
	if sel != nil {
		n = len(sel)
	}
	if cmp == nil && n > 0 {
		return nil, CheckComparable(v.Type, ValueType(p.Val))
	}
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = sel[k]
		}
		if p.Op.Match(cmp(i)) {
			out = append(out, i)
		}
	}
	return out, nil
}

// An interval is the values x with lo <= x <= hi in cmpOrdered's order, a
// bound strict unless its incl is set and absent when nil: what planScan
// folds a column's ordered comparisons into (x = v is [v, v]), and what the
// zone maps test of any comparison. Its bounds are of one type.
type interval struct {
	lo, hi         any
	loIncl, hiIncl bool
}

// interval is the comparison as an interval over a column of type typ, ok
// when it is one: an ordered operator and a literal of an INTEGER, FLOAT or
// VARCHAR column's own type, an INTEGER literal on a FLOAT column widened.
// Over its literal's own type it is the interval the zone maps test.
func (p *Pred) interval(typ Type) (interval, bool) {
	v := p.Val
	if x, ok := v.(int64); ok && typ == TypeFloat64 {
		v = float64(x)
	}
	if ValueType(v) != typ || typ == TypeBool {
		return interval{}, false
	}
	switch p.Op {
	case OpEQ:
		return interval{lo: v, hi: v, loIncl: true, hiIncl: true}, true
	case OpGT, OpGE:
		return interval{lo: v, loIncl: p.Op == OpGE}, true
	case OpLT, OpLE:
		return interval{hi: v, hiIncl: p.Op == OpLE}, true
	}
	return interval{}, false
}

// fold narrows iv by o, a bound on a side iv leaves open, or [v, v] when iv
// is unbounded; it reports false, leaving iv as it is, when a side o bounds
// is taken.
func (iv *interval) fold(o interval) bool {
	if iv.lo != nil && o.lo != nil || iv.hi != nil && o.hi != nil {
		return false
	}
	if o.lo != nil {
		iv.lo, iv.loIncl = o.lo, o.loIncl
	}
	if o.hi != nil {
		iv.hi, iv.hiIncl = o.hi, o.hiIncl
	}
	return true
}

// selectRows is Pred.selectRows for an interval of v's type, in one pass.
func (iv *interval) selectRows(v *Vector, sel, out []int) []int {
	switch v.Type {
	case TypeInt64:
		return selectIn(v.Ints, iv, math.MinInt64, math.MaxInt64, true, sel, out)
	case TypeFloat64:
		return selectIn(v.Floats, iv, math.Inf(-1), math.Inf(1), true, sel, out)
	}
	return selectIn(v.Strs, iv, "", "", false, sel, out)
}

// selectIn is the interval kernel: one typed loop, one pass over every row
// of xs or the rows sel lists. An absent bound is T's least or greatest
// value, included; VARCHAR has no greatest value (hasMax false), so an
// absent upper bound leaves its interval open. The test is the conjunction
// !(x < lo) && !(x > hi) && (loIncl || x > lo) && (hiIncl || x < hi),
// expressed through < and > alone, so NaN and ±0 fall exactly as cmpOrdered
// orders them: a NaN lies inside every inclusive bound, and -0 equals +0.
// The comparisons come first: a row below the interval is rejected by one,
// a row above it by two and the open flag, and only a row inside tests the
// inclusivity flags.
func selectIn[T int64 | float64 | string](xs []T, iv *interval, least, greatest T, hasMax bool, sel, out []int) []int {
	lo, loIncl := least, true
	if iv.lo != nil {
		lo, loIncl = iv.lo.(T), iv.loIncl
	}
	hi, hiIncl := greatest, true
	if iv.hi != nil {
		hi, hiIncl = iv.hi.(T), iv.hiIncl
	}
	open := iv.hi == nil && !hasMax
	in := func(x T) bool {
		return !(x < lo) && (!(x > hi) || open) && (loIncl || x > lo) && (hiIncl || x < hi)
	}
	out = out[:0]
	if sel == nil {
		for i, x := range xs {
			if in(x) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel { // a scan refines sel in place, in out
		if in(xs[i]) {
			out = append(out, i)
		}
	}
	return out
}

// CompareVectors sets out[i] to whether l[i] op r[i] holds, for two vectors
// as long as out, in CompareValues' order and widening. Types that do not
// compare fail with CompareValues' error however short the vectors are.
func CompareVectors(op CompareOp, l, r *Vector, out []bool) error {
	if err := CheckComparable(l.Type, r.Type); err != nil {
		return err
	}
	switch {
	case l.Type == TypeInt64 && r.Type == TypeInt64:
		compareOrdered(op, l.Ints, r.Ints, out)
	case l.Type == TypeFloat64 && r.Type == TypeFloat64:
		compareOrdered(op, l.Floats, r.Floats, out)
	case l.Type == TypeString:
		compareOrdered(op, l.Strs, r.Strs, out)
	case l.Type == TypeBool:
		for i := range out {
			out[i] = op.Match(cmpOrdered(boolInt(l.Bools[i]), boolInt(r.Bools[i])))
		}
	case l.Type == TypeInt64: // against FLOAT
		for i := range out {
			out[i] = op.Match(cmpOrdered(float64(l.Ints[i]), r.Floats[i]))
		}
	default: // FLOAT against INTEGER
		for i := range out {
			out[i] = op.Match(cmpOrdered(l.Floats[i], float64(r.Ints[i])))
		}
	}
	return nil
}

// compareOrdered is CompareVectors' typed kernel, one loop per operator.
func compareOrdered[T int64 | float64 | string](op CompareOp, a, b []T, out []bool) {
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case OpEQ:
		for i := range out {
			out[i] = !(a[i] < b[i] || a[i] > b[i])
		}
	case OpNE:
		for i := range out {
			out[i] = a[i] < b[i] || a[i] > b[i]
		}
	case OpLT:
		for i := range out {
			out[i] = a[i] < b[i]
		}
	case OpLE:
		for i := range out {
			out[i] = !(a[i] > b[i])
		}
	case OpGT:
		for i := range out {
			out[i] = a[i] > b[i]
		}
	case OpGE:
		for i := range out {
			out[i] = !(a[i] < b[i])
		}
	}
}

// CompareValues compares two boxed values with SQL numeric widening
// (INTEGER vs FLOAT compares numerically). Returns -1, 0 or 1.
func CompareValues(a, b any) (int, error) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpOrdered(x, y), nil
		case float64:
			return cmpOrdered(float64(x), y), nil
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return cmpOrdered(x, float64(y)), nil
		case float64:
			return cmpOrdered(x, y), nil
		}
	case string:
		if y, ok := b.(string); ok {
			return cmpOrdered(x, y), nil
		}
	case bool:
		if y, ok := b.(bool); ok {
			return cmpOrdered(boolInt(x), boolInt(y)), nil
		}
	}
	return 0, fmt.Errorf("colstore: cannot compare %T with %T", a, b)
}

// CompareAt compares v[i] with o[j] — two vectors of one type — in
// CompareValues' order, without boxing either value.
func (v *Vector) CompareAt(i int, o *Vector, j int) int {
	switch v.Type {
	case TypeInt64:
		return cmpOrdered(v.Ints[i], o.Ints[j])
	case TypeFloat64:
		return cmpOrdered(v.Floats[i], o.Floats[j])
	case TypeString:
		return cmpOrdered(v.Strs[i], o.Strs[j])
	case TypeBool:
		return cmpOrdered(boolInt(v.Bools[i]), boolInt(o.Bools[j]))
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func cmpOrdered[T int | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
