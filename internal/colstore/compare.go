package colstore

import "fmt"

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
// out[:0] (callers reuse one scratch slice across blocks, so a scan allocates
// no index slice per block once warm). out may share sel's array: a
// selection refines in place, since a kept row is never written ahead of the
// row being read. Comparable types run typed loops; a pair that does not
// compare fails with CompareValues' error, and only when there is a row to
// compare.
func (p *Pred) selectRows(v *Vector, sel, out []int) ([]int, error) {
	op := p.Op
	switch v.Type {
	case TypeInt64:
		switch val := p.Val.(type) {
		case int64:
			return selectOrdered(op, v.Ints, val, sel, out), nil
		case float64:
			xs := v.Ints
			return selectFunc(len(xs), sel, out, func(i int) bool { return op.Match(cmpOrdered(float64(xs[i]), val)) }), nil
		}
	case TypeFloat64:
		switch val := p.Val.(type) {
		case float64:
			return selectOrdered(op, v.Floats, val, sel, out), nil
		case int64:
			return selectOrdered(op, v.Floats, float64(val), sel, out), nil
		}
	case TypeString:
		if val, ok := p.Val.(string); ok {
			return selectOrdered(op, v.Strs, val, sel, out), nil
		}
	case TypeBool:
		if val, ok := p.Val.(bool); ok {
			xs, vi := v.Bools, boolInt(val)
			return selectFunc(len(xs), sel, out, func(i int) bool { return op.Match(cmpOrdered(boolInt(xs[i]), vi)) }), nil
		}
	}
	// Every row of a vector boxes to one type, so the first row's comparison
	// fails as every row's would.
	first := 0
	if sel != nil {
		if len(sel) == 0 {
			return out[:0], nil
		}
		first = sel[0]
	} else if v.Len() == 0 {
		return out[:0], nil
	}
	_, err := CompareValues(v.Value(first), p.Val)
	return nil, err
}

// selectFunc is selectRows' form for a per-row test.
func selectFunc(n int, sel, out []int, match func(i int) bool) []int {
	out = out[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if match(i) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if match(i) {
			out = append(out, i)
		}
	}
	return out
}

// selectOrdered is selectRows' typed kernel: one loop per operator, each
// expressed through < and > alone, so NaN and ±0 fall exactly as cmpOrdered
// orders them.
func selectOrdered[T int64 | float64 | string](op CompareOp, xs []T, val T, sel, out []int) []int {
	out = out[:0]
	if sel == nil {
		switch op {
		case OpEQ:
			for i, x := range xs {
				if !(x < val || x > val) {
					out = append(out, i)
				}
			}
		case OpNE:
			for i, x := range xs {
				if x < val || x > val {
					out = append(out, i)
				}
			}
		case OpLT:
			for i, x := range xs {
				if x < val {
					out = append(out, i)
				}
			}
		case OpLE:
			for i, x := range xs {
				if !(x > val) {
					out = append(out, i)
				}
			}
		case OpGT:
			for i, x := range xs {
				if x > val {
					out = append(out, i)
				}
			}
		case OpGE:
			for i, x := range xs {
				if !(x < val) {
					out = append(out, i)
				}
			}
		}
		return out
	}
	switch op {
	case OpEQ:
		for _, i := range sel {
			if x := xs[i]; !(x < val || x > val) {
				out = append(out, i)
			}
		}
	case OpNE:
		for _, i := range sel {
			if x := xs[i]; x < val || x > val {
				out = append(out, i)
			}
		}
	case OpLT:
		for _, i := range sel {
			if xs[i] < val {
				out = append(out, i)
			}
		}
	case OpLE:
		for _, i := range sel {
			if !(xs[i] > val) {
				out = append(out, i)
			}
		}
	case OpGT:
		for _, i := range sel {
			if xs[i] > val {
				out = append(out, i)
			}
		}
	case OpGE:
		for _, i := range sel {
			if !(xs[i] < val) {
				out = append(out, i)
			}
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
