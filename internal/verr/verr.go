// Package verr is the library's error vocabulary: a small set of sentinel
// errors that the layered packages (catalog, sqlexec, models, server) wrap
// with %w at their boundaries so callers can dispatch with errors.Is instead
// of matching message strings. The sentinels also have stable wire codes so
// the serving protocol (internal/server) can carry them across a TCP
// connection and reconstruct an errors.Is-matchable error on the client.
package verr

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors. Each is wrapped (never returned bare) by the layer that
// detects the condition, so messages stay descriptive while identity stays
// matchable.
var (
	// ErrTableNotFound: a statement referenced a table absent from the
	// catalog.
	ErrTableNotFound = errors.New("table not found")
	// ErrUnknownColumn: an expression referenced a column absent from the
	// table's schema (or the statement's output).
	ErrUnknownColumn = errors.New("unknown column")
	// ErrModelNotFound: a prediction referenced a model that is not deployed
	// (no DFS blob / no R_Models row).
	ErrModelNotFound = errors.New("model not found")
	// ErrOverloaded: admission control rejected the query — the concurrency
	// limit and the bounded wait queue were both saturated, or the queue wait
	// exceeded the configured deadline. The request was never executed;
	// retrying after backoff is safe.
	ErrOverloaded = errors.New("server overloaded")
	// ErrCanceled: the query's context was canceled (or its deadline
	// expired) and execution stopped at the next scan-block or
	// aggregation-chunk boundary.
	ErrCanceled = errors.New("query canceled")
	// ErrClosed: the session or server is shut down; new work is rejected
	// fail-fast.
	ErrClosed = errors.New("session closed")
	// ErrNodeDown: a cluster peer was unreachable (or every replica of a
	// shard was), so a routed operation could not complete. The router
	// retries idempotent reads on surviving replicas before surfacing this.
	ErrNodeDown = errors.New("node down")
	// ErrJoinTooLarge: a routed join's build side — a joined table that is
	// not co-located with the probe side, so the router must broadcast it —
	// exceeded the router's fixed byte limit. Nothing ran; segmenting both
	// tables by hash of their join keys makes the join co-located.
	ErrJoinTooLarge = errors.New("join build side too large")
)

// canceledError attaches the concrete context cause (context.Canceled or
// context.DeadlineExceeded) to ErrCanceled so both errors.Is(err,
// verr.ErrCanceled) and errors.Is(err, context.Canceled) hold.
type canceledError struct{ cause error }

func (e *canceledError) Error() string   { return fmt.Sprintf("query canceled: %v", e.cause) }
func (e *canceledError) Unwrap() []error { return []error{ErrCanceled, e.cause} }

// Canceled wraps a context error (ctx.Err()) into the vocabulary. A nil
// cause returns nil, so `return verr.Canceled(ctx.Err())` is safe on the
// not-canceled path.
func Canceled(cause error) error {
	if cause == nil {
		return nil
	}
	return &canceledError{cause: cause}
}

// Wire codes for the serving protocol. Code maps an error to its stable
// protocol token; FromCode reconstructs a matchable error from a token plus
// the human-readable remote message.
const (
	CodeOK            = "ok"
	CodeTableNotFound = "table_not_found"
	CodeUnknownColumn = "unknown_column"
	CodeModelNotFound = "model_not_found"
	CodeOverloaded    = "overloaded"
	CodeCanceled      = "canceled"
	CodeClosed        = "closed"
	CodeNodeDown      = "node_down"
	CodeJoinTooLarge  = "join_too_large"
	CodeInternal      = "internal"
)

var codeOf = []struct {
	err  error
	code string
}{
	// Order matters only for errors wrapping several sentinels; none do
	// today except canceledError, which is matched first anyway.
	{ErrOverloaded, CodeOverloaded},
	{ErrCanceled, CodeCanceled},
	{ErrClosed, CodeClosed},
	{ErrNodeDown, CodeNodeDown},
	{ErrJoinTooLarge, CodeJoinTooLarge},
	{ErrTableNotFound, CodeTableNotFound},
	{ErrUnknownColumn, CodeUnknownColumn},
	{ErrModelNotFound, CodeModelNotFound},
}

// Code returns the wire code for err (CodeInternal when err matches no
// sentinel, CodeOK for nil).
func Code(err error) string {
	if err == nil {
		return CodeOK
	}
	for _, m := range codeOf {
		if errors.Is(err, m.err) {
			return m.code
		}
	}
	return CodeInternal
}

// FromCode rebuilds a client-side error from a wire code and remote message.
// The result wraps the matching sentinel so errors.Is works across the
// protocol boundary; unknown codes yield a plain error carrying the message.
func FromCode(code, msg string) error {
	msg = strings.TrimSpace(msg)
	for _, m := range codeOf {
		if m.code == code {
			return fmt.Errorf("%w: %s", m.err, msg)
		}
	}
	return fmt.Errorf("remote error (%s): %s", code, msg)
}
