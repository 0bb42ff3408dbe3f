package colstore

import (
	"context"
	"errors"
	"testing"

	"verticadr/internal/verr"
)

// A canceled scan must stop within one storage block: cancellation is
// checked before every block decode, so after cancel() fires inside a
// delivery callback, no further batch may be delivered.
func TestScanCancelStopsWithinOneBlock(t *testing.T) {
	const blockRows, blocks = 64, 40
	seg := NewSegment(Schema{{Name: "x", Type: TypeFloat64}}, blockRows)
	b := NewBatch(seg.Schema())
	for i := 0; i < blockRows*blocks; i++ {
		if err := b.AppendRow(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	err := pushScan(ctx, seg, []string{"x"}, nil, nil, func(batch *Batch) error {
		delivered++
		cancel() // cancel during the first delivery
		return nil
	})
	if !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("err = %v, want verr.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to also match context.Canceled", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d batches after cancel, want exactly 1 (the one that canceled)", delivered)
	}
}

// Concurrent cursor ranges also observe cancellation: ranges already running
// may finish decoding their current block, but in-order delivery stops and the
// scan returns the typed error.
func TestParScanCancelReturnsTypedError(t *testing.T) {
	const blockRows, blocks = 64, 40
	seg := NewSegment(Schema{{Name: "x", Type: TypeFloat64}}, blockRows)
	b := NewBatch(seg.Schema())
	for i := 0; i < blockRows*blocks; i++ {
		if err := b.AppendRow(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var deliveredAfterCancel int
	canceled := false
	err := parScan(ctx, seg, []string{"x"}, nil, 4, nil, func(batch *Batch) error {
		if canceled {
			deliveredAfterCancel++
		}
		canceled = true
		cancel()
		return nil
	})
	if !errors.Is(err, verr.ErrCanceled) {
		t.Fatalf("err = %v, want verr.ErrCanceled", err)
	}
	if deliveredAfterCancel != 0 {
		t.Fatalf("%d batches delivered after cancel, want 0", deliveredAfterCancel)
	}
}

// A canceled cursor stops within one block: the Next after cancel() decodes
// nothing and returns the typed error.
func TestCursorCancelStopsWithinOneBlock(t *testing.T) {
	seg := randomSegment(t, 11, 64*40, 64)
	curs, err := seg.ScanCursors([]string{"v"}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := curs[1] // the range that also holds the tail
	defer c.Close()
	if b, err := c.Next(ctx); err != nil || b == nil {
		t.Fatalf("first block: batch %v, err %v", b, err)
	}
	before := c.Stats()
	cancel()
	b, err := c.Next(ctx)
	if b != nil || !errors.Is(err, verr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("after cancel: batch %v, err %v, want verr.ErrCanceled", b, err)
	}
	if c.Stats() != before {
		t.Fatalf("a canceled Next still read: stats %+v, before %+v", c.Stats(), before)
	}
}
