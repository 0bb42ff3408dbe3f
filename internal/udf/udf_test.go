package udf

import (
	"errors"
	"testing"

	"verticadr/internal/colstore"
)

// doubler is a trivial transform that doubles a single float column.
type doubler struct{}

func (doubler) OutputSchema(in colstore.Schema, _ Params) (colstore.Schema, error) {
	if len(in) != 1 || in[0].Type != colstore.TypeFloat64 {
		return nil, errors.New("doubler wants one FLOAT column")
	}
	return colstore.Schema{{Name: "doubled", Type: colstore.TypeFloat64}}, nil
}

func (doubler) ProcessPartition(ctx *Ctx, in BatchReader, out BatchWriter) error {
	for {
		b, err := in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		vals := make([]float64, b.Len())
		for i, v := range b.Cols[0].Floats {
			vals[i] = v * 2
		}
		ob := &colstore.Batch{
			Schema: colstore.Schema{{Name: "doubled", Type: colstore.TypeFloat64}},
			Cols:   []*colstore.Vector{colstore.FloatVector(vals)},
		}
		if err := out.Write(ob); err != nil {
			return err
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("MyFunc", func() Transform { return doubler{} }); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("myfunc", func() Transform { return doubler{} }); err == nil {
		t.Fatal("case-insensitive duplicate should fail")
	}
	f, err := r.Lookup("MYFUNC")
	if err != nil || f == nil {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Fatal("unknown lookup should fail")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "MYFUNC" {
		t.Fatalf("names = %v", names)
	}
}

func TestTransformEndToEnd(t *testing.T) {
	schema := colstore.Schema{{Name: "x", Type: colstore.TypeFloat64}}
	b1 := &colstore.Batch{Schema: schema, Cols: []*colstore.Vector{colstore.FloatVector([]float64{1, 2})}}
	b2 := &colstore.Batch{Schema: schema, Cols: []*colstore.Vector{colstore.FloatVector([]float64{3})}}
	var d doubler
	outSchema, err := d.OutputSchema(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := NewAppendWriter(outSchema)
	if err := d.ProcessPartition(&Ctx{}, NewSliceReader(b1, b2), w); err != nil {
		t.Fatal(err)
	}
	res := w.Out
	want := []float64{2, 4, 6}
	if res.Len() != 3 {
		t.Fatalf("got %d rows", res.Len())
	}
	for i, v := range want {
		if res.Cols[0].Floats[i] != v {
			t.Fatalf("row %d = %v want %v", i, res.Cols[0].Floats[i], v)
		}
	}
}

func TestParamsAccessors(t *testing.T) {
	p := Params{"model": "rModel", "k": int64(3), "frac": 2.0, "bad": 1.5}
	if s, err := p.String("model"); err != nil || s != "rModel" {
		t.Fatalf("String: %v %v", s, err)
	}
	if _, err := p.String("missing"); err == nil {
		t.Fatal("missing string should fail")
	}
	if _, err := p.String("k"); err == nil {
		t.Fatal("wrong-type string should fail")
	}
	if p.StringOr("missing", "d") != "d" {
		t.Fatal("StringOr default")
	}
	if n, err := p.Int("k"); err != nil || n != 3 {
		t.Fatalf("Int: %v %v", n, err)
	}
	if n, err := p.Int("frac"); err != nil || n != 2 {
		t.Fatalf("integral float should coerce: %v %v", n, err)
	}
	if _, err := p.Int("bad"); err == nil {
		t.Fatal("non-integral float should fail")
	}
	if _, err := p.Int("missing"); err == nil {
		t.Fatal("missing int should fail")
	}
	if p.IntOr("missing", 9) != 9 {
		t.Fatal("IntOr default")
	}
}

func TestCtxService(t *testing.T) {
	c := &Ctx{Services: map[string]any{"dfs": 42}}
	v, err := c.Service("dfs")
	if err != nil || v != 42 {
		t.Fatalf("service: %v %v", v, err)
	}
	if _, err := c.Service("nope"); err == nil {
		t.Fatal("unknown service should fail")
	}
	empty := &Ctx{}
	if _, err := empty.Service("dfs"); err == nil {
		t.Fatal("nil services should fail")
	}
}

func TestSliceReaderExhaustion(t *testing.T) {
	r := NewSliceReader()
	b, err := r.Next()
	if b != nil || err != nil {
		t.Fatal("empty reader should return nil, nil")
	}
}

func TestAppendWriterCopiesAndReuses(t *testing.T) {
	schema := colstore.Schema{{Name: "p", Type: colstore.TypeFloat64}}
	w := NewAppendWriter(schema)
	preds := []float64{1.5, 2.5}
	b := &colstore.Batch{Schema: schema, Cols: []*colstore.Vector{colstore.FloatVector(preds)}}

	if err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	// Caller reuses the same backing array for the next block — the writer
	// must have copied, not retained.
	preds[0], preds[1] = -7, -8
	if err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.5, -7, -8}
	if w.Out.Len() != len(want) {
		t.Fatalf("accumulated %d rows, want %d", w.Out.Len(), len(want))
	}
	for i, v := range want {
		if w.Out.Cols[0].Floats[i] != v {
			t.Fatalf("row %d = %v, want %v", i, w.Out.Cols[0].Floats[i], v)
		}
	}
	// Invalid batches are rejected.
	bad := &colstore.Batch{Schema: schema, Cols: []*colstore.Vector{colstore.IntVector([]int64{1})}}
	if err := w.Write(bad); err == nil {
		t.Fatal("mistyped batch should fail validation")
	}
}
