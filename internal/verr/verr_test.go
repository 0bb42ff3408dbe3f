package verr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCanceledWrapsBoth(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx.Err())
	if !errors.Is(err, ErrCanceled) {
		t.Fatal("not ErrCanceled")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("not context.Canceled")
	}
	if Canceled(nil) != nil {
		t.Fatal("Canceled(nil) must be nil")
	}
}

func TestCodeRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{fmt.Errorf("catalog: table %q does not exist: %w", "t", ErrTableNotFound), CodeTableNotFound},
		{fmt.Errorf("sqlexec: unknown column %q: %w", "c", ErrUnknownColumn), CodeUnknownColumn},
		{fmt.Errorf("models: %w: m", ErrModelNotFound), CodeModelNotFound},
		{fmt.Errorf("server: %w", ErrOverloaded), CodeOverloaded},
		{Canceled(context.Canceled), CodeCanceled},
		{fmt.Errorf("server: %w", ErrClosed), CodeClosed},
		{fmt.Errorf("cluster: join build side %q: %w", "d", ErrJoinTooLarge), CodeJoinTooLarge},
		{errors.New("boom"), CodeInternal},
	}
	for _, c := range cases {
		if got := Code(c.err); got != c.code {
			t.Fatalf("Code(%v) = %q, want %q", c.err, got, c.code)
		}
		if c.code == CodeInternal {
			continue
		}
		back := FromCode(c.code, c.err.Error())
		if Code(back) != c.code {
			t.Fatalf("FromCode(%q) did not round-trip: %v", c.code, back)
		}
	}
	if Code(nil) != CodeOK {
		t.Fatal("Code(nil) != ok")
	}
}
