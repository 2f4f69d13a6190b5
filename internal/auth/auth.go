// Package auth is the per-principal access-control layer of the
// service: API-key authentication against a hot-reloadable keys file
// (keys stored as SHA-256 hashes, compared in constant time), a
// principal registry with per-principal limits (request rate, in-flight
// slots, maximum priority class), and a quota enforcer that degrades
// instead of hard-failing — a principal over its rate or concurrency
// budget has its requests demoted interactive → batch → background, and
// is only shed (HTTP 429 + Retry-After at the edge) once it is over
// budget at the background class. The resolved Principal travels on the
// request context next to the request's trace, so the scheduler accounts
// per principal, log lines carry the principal, and the engine clamps
// request priority to the principal's cap. In a sharded fleet the
// router authenticates once at the edge and forwards identity to
// replicas as an HMAC-signed internal header (Signer), so API keys
// never leave the edge.
package auth

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ssync/internal/obs"
	"ssync/internal/sched"
)

// ErrUnauthenticated is the sentinel for requests that presented no
// credential to a service that requires one. Services map it to HTTP
// 401.
var ErrUnauthenticated = errors.New("auth: unauthenticated")

// ErrUnknownKey is the sentinel for requests whose API key matches no
// registered principal. Services map it to HTTP 401 without revealing
// whether the key was close.
var ErrUnknownKey = errors.New("auth: unknown API key")

// ErrBadCredential is the sentinel for credentials that are malformed
// before any lookup — oversized keys, bytes outside the token alphabet,
// an Authorization header with the wrong scheme. Services map it to
// HTTP 401.
var ErrBadCredential = errors.New("auth: malformed credential")

// ErrBadIdentity is the sentinel for internal identity headers that
// fail verification — wrong signature, expired or future timestamp,
// unparseable payload. A replica never falls back to anonymous on a
// bad identity header: presence of the header is a claim, and a claim
// that does not verify is rejected (HTTP 401).
var ErrBadIdentity = errors.New("auth: invalid internal identity")

// ErrOverQuota is the sentinel under every *QuotaError: the principal
// was over its rate or concurrency budget even at the background rung
// of the degradation ladder, so the request was shed. Services map it
// to HTTP 429 + Retry-After.
var ErrOverQuota = errors.New("auth: over quota")

// QuotaError reports a request shed because its principal exhausted
// the whole degradation ladder.
type QuotaError struct {
	// Principal names the over-budget principal.
	Principal string
	// Reason is "rate" (token bucket empty past the background
	// overdraft) or "inflight" (per-principal concurrency exhausted past
	// the background band).
	Reason string
	// Retry estimates when the principal's budget readmits a background
	// request (zero when no estimate exists).
	Retry time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("auth: principal %q over %s quota", e.Principal, e.Reason)
}

func (e *QuotaError) Unwrap() error { return ErrOverQuota }

// RetryAfter extracts the retry hint from a quota-shed error chain. ok
// is false for non-quota errors.
func RetryAfter(err error) (time.Duration, bool) {
	var qe *QuotaError
	if errors.As(err, &qe) {
		return qe.Retry, true
	}
	return 0, false
}

// Limits are one principal's resource bounds. The zero value of every
// field means "unlimited" (no rate bound, no concurrency bound, no
// class cap), so an empty keys-file entry gets exactly the behaviour an
// unauthenticated service has today.
type Limits struct {
	// RatePerSec refills the principal's token bucket (one token per
	// admitted request); <= 0 means no rate limit.
	RatePerSec float64
	// Burst is the bucket capacity — the size of an instantaneous burst
	// served at full priority. <= 0 selects DefaultBurst when RatePerSec
	// is set. Burst also sizes the ladder's overdraft bands: each
	// demotion step grants one extra Burst of debt before the next.
	Burst float64
	// MaxInFlight bounds the principal's concurrently admitted requests
	// at full priority; the ladder admits up to 2× at batch and 3× at
	// background before shedding. <= 0 means unbounded.
	MaxInFlight int
	// MaxClass is the best scheduling class the principal may use;
	// requests asking for better are clamped, not rejected. "" means no
	// cap (interactive allowed).
	MaxClass sched.Class
}

// DefaultBurst is the bucket capacity used when a rate limit is set
// without an explicit burst.
const DefaultBurst = 10

// Principal is one authenticated identity — an API key holder, or the
// shared anonymous principal on services running with authentication
// optional. Principals are immutable after construction; the quota
// enforcer keeps its mutable budget state separately, keyed by name, so
// a keys-file reload never resets a principal's bucket.
type Principal struct {
	// Name identifies the principal in logs, metrics and stats. Names
	// are validated on load (1–64 chars of [A-Za-z0-9._-]) so they are
	// safe as metric label values and log fields.
	Name string
	// Anonymous marks the shared principal used when authentication is
	// optional and a request presents no credential.
	Anonymous bool
	// Limits are the principal's resource bounds.
	Limits Limits
}

// AnonymousName is the reserved principal name for unauthenticated
// requests on services running with authentication optional.
const AnonymousName = "anonymous"

// ctxKey keys this package's context values; unexported so only these
// accessors can read or write them.
type ctxKey int

const (
	ctxPrincipal ctxKey = iota
	ctxGrant
)

// WithPrincipal returns ctx carrying the principal (and its name for
// the scheduler's per-principal accounting). Embedders that do their
// own admission attach principals directly; services use WithGrant,
// which carries the quota decision too.
func WithPrincipal(ctx context.Context, p *Principal) context.Context {
	if p == nil {
		return ctx
	}
	ctx = obs.WithPrincipalName(ctx, p.Name)
	return context.WithValue(ctx, ctxPrincipal, p)
}

// PrincipalFrom returns the principal carried by ctx — attached
// directly or through an admission grant — or ok=false when the request
// is unattributed.
func PrincipalFrom(ctx context.Context) (*Principal, bool) {
	if g, ok := ctx.Value(ctxGrant).(*Grant); ok && g != nil {
		return g.Principal, true
	}
	p, ok := ctx.Value(ctxPrincipal).(*Principal)
	return p, ok && p != nil
}

// WithGrant returns ctx carrying an admission grant: the principal,
// the (possibly demoted) class cap the quota enforcer granted this
// request, and the live budget handle batch handlers charge extra
// entries against.
func WithGrant(ctx context.Context, g *Grant) context.Context {
	if g == nil {
		return ctx
	}
	ctx = obs.WithPrincipalName(ctx, g.Principal.Name)
	return context.WithValue(ctx, ctxGrant, g)
}

// GrantFrom returns the admission grant carried by ctx, or ok=false.
func GrantFrom(ctx context.Context) (*Grant, bool) {
	g, ok := ctx.Value(ctxGrant).(*Grant)
	return g, ok && g != nil
}

// Clamp resolves the scheduling class a request may actually use: the
// requested class demoted to the admission grant's cap when ctx
// carries one, else to the principal's MaxClass, else unchanged. The
// engine calls this on every request, so priority caps hold even for
// embedders that bypass the HTTP edge.
func Clamp(ctx context.Context, class sched.Class) sched.Class {
	out := class
	if g, ok := GrantFrom(ctx); ok {
		out = sched.Weaker(class, g.Class)
	} else if p, ok := PrincipalFrom(ctx); ok && p.Limits.MaxClass != "" {
		out = sched.Weaker(class, p.Limits.MaxClass)
	}
	if out != class {
		// A quota clamp changed what the client asked for — record it as a
		// zero-length trace event so a demoted request's timeline says why
		// it queued in a slower class.
		obs.TraceFrom(ctx).Record("", obs.SpanID(ctx), "auth.clamp", time.Now(), 0,
			map[string]string{
				"principal": obs.PrincipalName(ctx),
				"from":      string(class),
				"to":        string(out),
			})
	}
	return out
}

// ChargeExtra debits n extra admissions from the budget behind ctx's
// grant — how batch endpoints charge a request carrying many entries
// the same rate cost as the entries posted one by one. A context
// without a grant (auth disabled, or identity forwarded from an edge
// that already charged) is a no-op.
func ChargeExtra(ctx context.Context, n int) {
	if g, ok := GrantFrom(ctx); ok {
		g.ChargeExtra(n)
	}
}
