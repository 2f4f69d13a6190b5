// Package obs is the observability core shared by every layer of the
// service: per-request traces whose spans are the one event stream
// every layer reports into, per-request structured loggers (log/slog)
// carrying the trace ID on every line, and a dependency-free
// Prometheus-text-format metrics registry. The HTTP edge derives its
// event histograms from the spans a trace records (ObserveSpans), so
// the compilation layers (engine, sched, store) need no separate
// instrumentation interface. The package imports only the standard
// library, so internal packages can depend on it without ever touching
// the HTTP layer.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sync/atomic"
)

// ctxKey keys the package's context values; unexported so only this
// package's accessors can read or write them.
type ctxKey int

const (
	ctxLogger ctxKey = iota
	ctxTrace
	ctxPrincipal
	ctxSpan
)

// idFallback distinguishes minted IDs if crypto/rand ever fails (it
// realistically cannot; the counter keeps IDs unique regardless).
var idFallback atomic.Uint64

// newHexID mints 2n lowercase hex characters of randomness — n=8 for
// span IDs, n=16 for trace IDs.
func newHexID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		c := idFallback.Add(1)
		for i := range b {
			b[i] = byte(c >> (8 * (i % 8)))
		}
	}
	return hex.EncodeToString(b)
}

// WithLogger returns ctx carrying a request-scoped logger. The HTTP edge
// attaches a logger pre-bound with the trace ID, so every line any
// downstream layer logs through Logger(ctx) correlates to the request.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, ctxLogger, l)
}

// Logger returns the request-scoped logger carried by ctx, falling back
// to slog.Default(). Library layers log through this at debug level, so
// embeddings that never attach a logger stay quiet under the default
// info threshold.
func Logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(ctxLogger).(*slog.Logger); ok && l != nil {
		return l
	}
	return slog.Default()
}

// WithPrincipalName returns ctx carrying the authenticated principal's
// name. The auth layer attaches it alongside its richer Principal value;
// it lives here (stdlib-only) so the scheduler can account admissions
// per principal without depending on the auth package.
func WithPrincipalName(ctx context.Context, name string) context.Context {
	if name == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxPrincipal, name)
}

// PrincipalName returns the principal name carried by ctx, or "" for an
// unattributed request.
func PrincipalName(ctx context.Context) string {
	name, _ := ctx.Value(ctxPrincipal).(string)
	return name
}
