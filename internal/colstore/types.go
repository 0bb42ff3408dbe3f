// Package colstore implements the columnar storage engine underneath the
// Vertica substitute: typed column vectors, light-weight compression
// encodings (plain, RLE, delta, dictionary), segment files with block-level
// min/max statistics, and checksummed on-disk persistence. A table in the
// database is stored as one or more Segments, each owned by a cluster node
// (the paper's "table segments", §3.1).
package colstore

import (
	"fmt"
)

// Type enumerates the column types supported by the engine.
type Type uint8

const (
	// TypeInvalid is the zero Type and never stored.
	TypeInvalid Type = iota
	// TypeInt64 is a 64-bit signed integer column.
	TypeInt64
	// TypeFloat64 is a 64-bit IEEE float column.
	TypeFloat64
	// TypeString is a variable-length UTF-8 string column.
	TypeString
	// TypeBool is a boolean column.
	TypeBool
)

// String returns the SQL-facing name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "INTEGER"
	case TypeFloat64:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("INVALID(%d)", uint8(t))
	}
}

// ParseType maps a SQL type name to a Type; it accepts the common aliases.
func ParseType(s string) (Type, error) {
	switch s {
	case "INTEGER", "INT", "BIGINT", "integer", "int", "bigint":
		return TypeInt64, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "float", "double", "real", "numeric":
		return TypeFloat64, nil
	case "VARCHAR", "TEXT", "CHAR", "varchar", "text", "char":
		return TypeString, nil
	case "BOOLEAN", "BOOL", "boolean", "bool":
		return TypeBool, nil
	default:
		return TypeInvalid, fmt.Errorf("colstore: unknown type %q", s)
	}
}

// ColumnSchema is one column's name and type.
type ColumnSchema struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema []ColumnSchema

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Project returns a schema restricted to the given column names, in order.
func (s Schema) Project(names []string) (Schema, error) {
	out := make(Schema, 0, len(names))
	for _, n := range names {
		i := s.ColIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("colstore: unknown column %q", n)
		}
		out = append(out, s[i])
	}
	return out, nil
}

// Equal reports whether two schemas have identical columns in order.
func (s Schema) Equal(other Schema) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Vector is a typed column of values. Exactly one of the payload slices is
// used, selected by Type. The zero Vector is not usable; construct with
// NewVector.
type Vector struct {
	Type   Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
}

// NewVector returns an empty vector of the given type with capacity hint n.
func NewVector(t Type, n int) *Vector {
	v := &Vector{Type: t}
	switch t {
	case TypeInt64:
		v.Ints = make([]int64, 0, n)
	case TypeFloat64:
		v.Floats = make([]float64, 0, n)
	case TypeString:
		v.Strs = make([]string, 0, n)
	case TypeBool:
		v.Bools = make([]bool, 0, n)
	default:
		panic(fmt.Sprintf("colstore: NewVector of invalid type %v", t))
	}
	return v
}

// Reset truncates the vector to zero length, keeping the backing capacity so
// pooled vectors can be refilled without reallocating.
func (v *Vector) Reset() {
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.Bools = v.Bools[:0]
}

// reserve makes room for n more values without changing the length.
func (v *Vector) reserve(n int) {
	switch v.Type {
	case TypeInt64:
		v.Ints = grown(v.Ints, n)
	case TypeFloat64:
		v.Floats = grown(v.Floats, n)
	case TypeString:
		v.Strs = grown(v.Strs, n)
	case TypeBool:
		v.Bools = grown(v.Bools, n)
	}
}

// grown returns s with room for n more elements: one allocation when it is
// short, at least doubling so that repeated calls stay amortized.
func grown[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, max(2*cap(s), len(s)+n)), s...)
}

// FloatVector wraps a float64 slice as a vector without copying.
func FloatVector(vals []float64) *Vector { return &Vector{Type: TypeFloat64, Floats: vals} }

// IntVector wraps an int64 slice as a vector without copying.
func IntVector(vals []int64) *Vector { return &Vector{Type: TypeInt64, Ints: vals} }

// StringVector wraps a string slice as a vector without copying.
func StringVector(vals []string) *Vector { return &Vector{Type: TypeString, Strs: vals} }

// BoolVector wraps a bool slice as a vector without copying.
func BoolVector(vals []bool) *Vector { return &Vector{Type: TypeBool, Bools: vals} }

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Type {
	case TypeInt64:
		return len(v.Ints)
	case TypeFloat64:
		return len(v.Floats)
	case TypeString:
		return len(v.Strs)
	case TypeBool:
		return len(v.Bools)
	default:
		return 0
	}
}

// Value returns the i-th value boxed as any (int64, float64, string or bool).
func (v *Vector) Value(i int) any {
	switch v.Type {
	case TypeInt64:
		return v.Ints[i]
	case TypeFloat64:
		return v.Floats[i]
	case TypeString:
		return v.Strs[i]
	case TypeBool:
		return v.Bools[i]
	default:
		panic("colstore: Value on invalid vector")
	}
}

// AppendValue appends a boxed value; it must match the vector type, except
// that int64 values are accepted into float64 vectors (SQL numeric widening).
func (v *Vector) AppendValue(val any) error {
	switch v.Type {
	case TypeInt64:
		x, ok := val.(int64)
		if !ok {
			return fmt.Errorf("colstore: cannot append %T to INTEGER column", val)
		}
		v.Ints = append(v.Ints, x)
	case TypeFloat64:
		switch x := val.(type) {
		case float64:
			v.Floats = append(v.Floats, x)
		case int64:
			v.Floats = append(v.Floats, float64(x))
		default:
			return fmt.Errorf("colstore: cannot append %T to FLOAT column", val)
		}
	case TypeString:
		x, ok := val.(string)
		if !ok {
			return fmt.Errorf("colstore: cannot append %T to VARCHAR column", val)
		}
		v.Strs = append(v.Strs, x)
	case TypeBool:
		x, ok := val.(bool)
		if !ok {
			return fmt.Errorf("colstore: cannot append %T to BOOLEAN column", val)
		}
		v.Bools = append(v.Bools, x)
	default:
		return fmt.Errorf("colstore: append to invalid vector")
	}
	return nil
}

// AppendVector appends all of other (same type) to v.
func (v *Vector) AppendVector(other *Vector) error {
	if v.Type != other.Type {
		return fmt.Errorf("colstore: append %v vector to %v vector", other.Type, v.Type)
	}
	v.Ints = append(v.Ints, other.Ints...)
	v.Floats = append(v.Floats, other.Floats...)
	v.Strs = append(v.Strs, other.Strs...)
	v.Bools = append(v.Bools, other.Bools...)
	return nil
}

// AppendRange appends rows [lo, hi) of src, like AppendVector over a slice
// view but without materializing the view.
func (v *Vector) AppendRange(src *Vector, lo, hi int) error {
	if v.Type != src.Type {
		return fmt.Errorf("colstore: append %v range onto %v", src.Type, v.Type)
	}
	switch v.Type {
	case TypeInt64:
		v.Ints = append(v.Ints, src.Ints[lo:hi]...)
	case TypeFloat64:
		v.Floats = append(v.Floats, src.Floats[lo:hi]...)
	case TypeString:
		v.Strs = append(v.Strs, src.Strs[lo:hi]...)
	case TypeBool:
		v.Bools = append(v.Bools, src.Bools[lo:hi]...)
	}
	return nil
}

// Slice returns a view of rows [i, j) sharing the backing arrays.
func (v *Vector) Slice(i, j int) *Vector {
	out := &Vector{}
	v.SliceInto(out, i, j)
	return out
}

// SliceInto overwrites dst with a [i, j) view of v sharing the backing
// arrays — Slice without the allocation, for callers that reuse one view
// header across iterations.
func (v *Vector) SliceInto(dst *Vector, i, j int) {
	*dst = Vector{Type: v.Type}
	switch v.Type {
	case TypeInt64:
		dst.Ints = v.Ints[i:j]
	case TypeFloat64:
		dst.Floats = v.Floats[i:j]
	case TypeString:
		dst.Strs = v.Strs[i:j]
	case TypeBool:
		dst.Bools = v.Bools[i:j]
	}
}

// Gather returns a new vector of the rows selected by idx, in idx order.
func (v *Vector) Gather(idx []int) *Vector {
	out := NewVector(v.Type, len(idx))
	switch v.Type {
	case TypeInt64:
		for _, i := range idx {
			out.Ints = append(out.Ints, v.Ints[i])
		}
	case TypeFloat64:
		for _, i := range idx {
			out.Floats = append(out.Floats, v.Floats[i])
		}
	case TypeString:
		for _, i := range idx {
			out.Strs = append(out.Strs, v.Strs[i])
		}
	case TypeBool:
		for _, i := range idx {
			out.Bools = append(out.Bools, v.Bools[i])
		}
	}
	return out
}

// AppendGather appends src's rows selected by idx, in idx order. It is the
// appending form of Gather, used where the destination vector is reused
// across calls.
func (v *Vector) AppendGather(src *Vector, idx []int) error {
	if v.Type != src.Type {
		return fmt.Errorf("colstore: gather %v vector into %v vector", src.Type, v.Type)
	}
	switch v.Type {
	case TypeInt64:
		for _, i := range idx {
			v.Ints = append(v.Ints, src.Ints[i])
		}
	case TypeFloat64:
		for _, i := range idx {
			v.Floats = append(v.Floats, src.Floats[i])
		}
	case TypeString:
		for _, i := range idx {
			v.Strs = append(v.Strs, src.Strs[i])
		}
	case TypeBool:
		for _, i := range idx {
			v.Bools = append(v.Bools, src.Bools[i])
		}
	}
	return nil
}

// keep compacts v, in place, to the rows idx selects. idx must ascend, so
// that no row is overwritten before it is read.
func (v *Vector) keep(idx []int) {
	switch v.Type {
	case TypeInt64:
		v.Ints = keepRows(v.Ints, idx)
	case TypeFloat64:
		v.Floats = keepRows(v.Floats, idx)
	case TypeString:
		v.Strs = keepRows(v.Strs, idx)
	case TypeBool:
		v.Bools = keepRows(v.Bools, idx)
	}
}

func keepRows[T any](s []T, idx []int) []T {
	for k, i := range idx {
		s[k] = s[i]
	}
	return s[:len(idx)]
}

// Batch is a set of equal-length column vectors with their schema: the unit
// of data flow through the executor, transfer paths and UDFs.
type Batch struct {
	Schema Schema
	Cols   []*Vector
}

// NewBatch allocates an empty batch for the schema.
func NewBatch(schema Schema) *Batch {
	b := &Batch{Schema: schema, Cols: make([]*Vector, len(schema))}
	for i, c := range schema {
		b.Cols[i] = NewVector(c.Type, 0)
	}
	return b
}

// NewBatchCap allocates an empty batch for the schema with row-capacity hint
// n on every column, so callers that know the final size append without
// regrowing.
func NewBatchCap(schema Schema, n int) *Batch {
	b := &Batch{Schema: schema, Cols: make([]*Vector, len(schema))}
	for i, c := range schema {
		b.Cols[i] = NewVector(c.Type, n)
	}
	return b
}

// Reset truncates every column to zero rows, keeping schema and capacity —
// the recycle point for pooled batches.
func (b *Batch) Reset() {
	for _, c := range b.Cols {
		c.Reset()
	}
}

// Len returns the row count (the length of the first column; 0 if empty).
func (b *Batch) Len() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Validate checks the batch invariants: schema/column agreement and equal
// column lengths.
func (b *Batch) Validate() error {
	if len(b.Cols) != len(b.Schema) {
		return fmt.Errorf("colstore: batch has %d columns, schema has %d", len(b.Cols), len(b.Schema))
	}
	n := -1
	for i, c := range b.Cols {
		if c.Type != b.Schema[i].Type {
			return fmt.Errorf("colstore: column %d is %v, schema says %v", i, c.Type, b.Schema[i].Type)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return fmt.Errorf("colstore: column %d has %d rows, expected %d", i, c.Len(), n)
		}
	}
	return nil
}

// AppendRow appends one row of boxed values.
func (b *Batch) AppendRow(vals ...any) error {
	if len(vals) != len(b.Cols) {
		return fmt.Errorf("colstore: row has %d values, batch has %d columns", len(vals), len(b.Cols))
	}
	for i, v := range vals {
		if err := b.Cols[i].AppendValue(v); err != nil {
			return fmt.Errorf("column %q: %w", b.Schema[i].Name, err)
		}
	}
	return nil
}

// AppendBatch appends all rows of other; schemas must be equal.
func (b *Batch) AppendBatch(other *Batch) error {
	if !b.Schema.Equal(other.Schema) {
		return fmt.Errorf("colstore: schema mismatch in batch append")
	}
	for i := range b.Cols {
		if err := b.Cols[i].AppendVector(other.Cols[i]); err != nil {
			return err
		}
	}
	return nil
}

// Row returns row i as boxed values.
func (b *Batch) Row(i int) []any {
	out := make([]any, len(b.Cols))
	for j, c := range b.Cols {
		out[j] = c.Value(i)
	}
	return out
}

// AppendRange appends rows [lo, hi) of src column by column — the
// allocation-free equivalent of AppendBatch(src.Slice(lo, hi)).
func (b *Batch) AppendRange(src *Batch, lo, hi int) error {
	if len(b.Cols) != len(src.Cols) {
		return fmt.Errorf("colstore: append range of %d columns onto %d", len(src.Cols), len(b.Cols))
	}
	for i, c := range b.Cols {
		if err := c.AppendRange(src.Cols[i], lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// Slice returns a row range [i, j) view of the batch.
func (b *Batch) Slice(i, j int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]*Vector, len(b.Cols))}
	for k, c := range b.Cols {
		out.Cols[k] = c.Slice(i, j)
	}
	return out
}

// Project returns a batch with only the named columns (views, not copies).
func (b *Batch) Project(names []string) (*Batch, error) {
	schema, err := b.Schema.Project(names)
	if err != nil {
		return nil, err
	}
	out := &Batch{Schema: schema, Cols: make([]*Vector, len(names))}
	for i, n := range names {
		out.Cols[i] = b.Cols[b.Schema.ColIndex(n)]
	}
	return out, nil
}

// AppendGather appends src's rows selected by idx, in idx order — the
// selection-vector consumption point for filtered scans: instead of
// materializing an intermediate gathered batch, surviving rows append
// straight into the accumulating (often pooled) destination.
func (b *Batch) AppendGather(src *Batch, idx []int) error {
	if len(b.Cols) != len(src.Cols) {
		return fmt.Errorf("colstore: gather of %d columns onto %d", len(src.Cols), len(b.Cols))
	}
	for i, c := range b.Cols {
		if err := c.AppendGather(src.Cols[i], idx); err != nil {
			return err
		}
	}
	return nil
}

// Gather returns a new batch with the rows selected by idx.
func (b *Batch) Gather(idx []int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]*Vector, len(b.Cols))}
	for i, c := range b.Cols {
		out.Cols[i] = c.Gather(idx)
	}
	return out
}
