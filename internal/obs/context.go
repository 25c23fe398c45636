package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// Federation trace headers. A requester stamps every HTTP request of a
// federated query with the query's identity; the serving node attaches its
// own execution profile to that identity in its query registry, so one
// QueryID correlates console entries, slow-log lines and partial-failure
// reports across every node a query touched.
const (
	// HeaderQueryID carries the query's process-spanning identity.
	HeaderQueryID = "X-Query-ID"
	// HeaderParentSpan names the coordinator-side span (e.g. "q.../leg0/member1.1")
	// the remote execution hangs under in the merged profile.
	HeaderParentSpan = "X-Parent-Span"
)

// queryIDSeq disambiguates IDs minted in the same process; the random prefix
// disambiguates processes.
var queryIDSeq atomic.Uint64

// NewQueryID mints a globally unique query identity: "q" + 6 random hex
// bytes + a process-local sequence number. The sequence keeps IDs unique
// even if the random source repeats, and makes same-process IDs sortable by
// creation order.
func NewQueryID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here the
		// sequence number alone still guarantees process-local uniqueness.
		for i := range b {
			b[i] = 0
		}
	}
	return fmt.Sprintf("q%s-%d", hex.EncodeToString(b[:]), queryIDSeq.Add(1))
}

type queryIDKey struct{}

// WithQueryID returns a context carrying the query identity.
func WithQueryID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, queryIDKey{}, id)
}

// QueryIDFrom extracts the query identity, "" when absent.
func QueryIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(queryIDKey{}).(string)
	return id
}

// EnsureQueryID returns the context's query identity, minting and attaching
// a fresh one when absent.
func EnsureQueryID(ctx context.Context) (context.Context, string) {
	if ctx == nil {
		ctx = context.Background()
	}
	if id := QueryIDFrom(ctx); id != "" {
		return ctx, id
	}
	id := NewQueryID()
	return WithQueryID(ctx, id), id
}

type spanKey struct{}

// WithSpan attaches a live span to the context, so layers that only see a
// context (the federation client's chunked-download loop, for example) can
// hang their stage spans under the caller's without a signature change.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom extracts the context's span, nil when absent — and nil spans are
// no-ops everywhere, so callers use the result unconditionally.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
