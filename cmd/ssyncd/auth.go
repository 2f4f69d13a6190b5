package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"ssync/internal/auth"
	"ssync/internal/obs"
)

// The access-control edge of ssyncd: API keys are checked against the
// -auth-keys file, each principal's quota rides the degradation ladder
// (demote before shed), and in router mode the authenticated identity
// is forwarded to replicas as a signed internal header so keys never
// leave the edge. Only the compile-submitting POST endpoints are
// guarded; the GET surface (/v2/stats, /metrics, ...) stays open so
// health checks, scrapers and the cluster router's replica polling need
// no credentials.

// authRoutes is the set of paths the auth layer guards. All are
// POST-only handlers; everything else passes unauthenticated.
var authRoutes = map[string]bool{"/v2/compile": true, "/v2/batch": true}

// authOptions carries the -auth-* / -cluster-secret flags into the
// layer's constructor.
type authOptions struct {
	keysFile string
	optional bool
	secret   string
}

// enabled reports whether any access-control flag was set; without one
// the layer is not constructed and the request path is byte-for-byte
// what it was before authentication existed.
func (o authOptions) enabled() bool { return o.keysFile != "" || o.secret != "" }

// authLayer is the per-request access-control middleware and its
// backing state: the key authenticator, the quota enforcer, and (when
// -cluster-secret is set) the identity signer shared by router and
// replicas.
type authLayer struct {
	authn    *auth.Authenticator
	enforcer *auth.Enforcer
	signer   *auth.Signer // nil without -cluster-secret
	log      *slog.Logger

	reqs      *obs.Metric // ssync_auth_requests_total{outcome}
	demotions *obs.Metric // ssync_auth_demotions_total{principal}
	shed      *obs.Metric // ssync_auth_shed_total{principal,reason}
}

func newAuthLayer(opt authOptions, reg *obs.Registry, log *slog.Logger) (*authLayer, error) {
	authn, err := auth.NewAuthenticator(auth.Config{
		KeysFile: opt.keysFile,
		Optional: opt.optional,
	})
	if err != nil {
		return nil, err
	}
	var signer *auth.Signer
	if opt.secret != "" {
		if signer, err = auth.NewSigner(opt.secret, 0); err != nil {
			return nil, err
		}
	}
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	al := &authLayer{authn: authn, enforcer: auth.NewEnforcer(), signer: signer, log: log}
	al.register(reg)
	return al, nil
}

// register creates the auth metric families on reg, mirroring the
// key-set generation at scrape time. Principal-labelled families are
// cardinality-bounded by construction: names come from the keys file
// (validated, at most one per line) plus "anonymous" and the enforcer's
// overflow bucket.
func (al *authLayer) register(reg *obs.Registry) {
	al.reqs = reg.Counter("ssync_auth_requests_total",
		"Guarded requests by authentication outcome (ok, anonymous, forwarded, shed, unauthenticated, unknown_key, bad_credential, bad_identity).",
		"outcome")
	al.demotions = reg.Counter("ssync_auth_demotions_total",
		"Admissions granted below full priority because the principal was over a quota budget.", "principal")
	al.shed = reg.Counter("ssync_auth_shed_total",
		"Requests shed with 429 after the principal exhausted the whole degradation ladder, by reason (rate/inflight).",
		"principal", "reason")
	keys := reg.Gauge("ssync_auth_keyset_keys",
		"API-key entries in the serving keys-file generation.")
	reloadErrs := reg.Counter("ssync_auth_keyset_reload_errors_total",
		"Keys-file hot reloads rejected for parse errors (the previous generation kept serving).")
	reg.OnScrape(func() {
		st := al.authn.Stats()
		keys.With().Set(float64(st.Keys))
		reloadErrs.With().Set(float64(st.ReloadErrors))
	})
}

// credential extracts the API key a request presents: "Authorization:
// Bearer <key>" (preferred) or the "X-API-Key" header. A malformed
// Authorization header — wrong scheme, empty key — is ErrBadCredential,
// never silently ignored: a client that tried to authenticate must not
// fall through to anonymous.
func credential(r *http.Request) (string, error) {
	if h := r.Header.Get("Authorization"); h != "" {
		const scheme = "Bearer "
		if len(h) < len(scheme) || !strings.EqualFold(h[:len(scheme)], scheme) {
			return "", fmt.Errorf("%w: Authorization scheme must be Bearer", auth.ErrBadCredential)
		}
		key := strings.TrimSpace(h[len(scheme):])
		if key == "" {
			return "", fmt.Errorf("%w: empty bearer token", auth.ErrBadCredential)
		}
		return key, nil
	}
	return r.Header.Get("X-API-Key"), nil
}

// guard is the replica-side middleware on the compile-submitting
// routes. A request carrying the signed internal identity header was
// authenticated and charged at the router, so it only needs
// verification; a direct request is authenticated against the keys file
// and admitted through the quota ladder.
func (al *authLayer) guard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		start := time.Now()
		if hdr := r.Header.Get(auth.IdentityHeader); hdr != "" {
			p, err := al.verifyIdentity(hdr)
			if err != nil {
				al.reject(w, ctx, err)
				return
			}
			al.reqs.With("forwarded").Inc()
			recordAuthSpan(ctx, start, "forwarded", p.Name, nil)
			next.ServeHTTP(w, r.WithContext(auth.WithPrincipal(al.tagged(ctx, p), p)))
			return
		}
		cred, err := credential(r)
		var p *auth.Principal
		if err == nil {
			p, err = al.authn.Authenticate(cred)
		}
		if err != nil {
			al.reject(w, ctx, err)
			return
		}
		g, err := al.enforcer.Admit(p)
		if err != nil {
			al.reject(w, ctx, err)
			return
		}
		defer g.Release()
		if g.Demoted {
			al.demotions.With(p.Name).Inc()
		}
		outcome := "ok"
		if p.Anonymous {
			outcome = "anonymous"
		}
		al.reqs.With(outcome).Inc()
		recordAuthSpan(ctx, start, outcome, p.Name, g)
		next.ServeHTTP(w, r.WithContext(auth.WithGrant(al.tagged(ctx, p), g)))
	})
}

// recordAuthSpan traces the access-control decision, so a request's
// timeline names the principal it resolved to and — when the quota
// ladder demoted it — the class it will actually queue in.
func recordAuthSpan(ctx context.Context, start time.Time, outcome, principal string, g *auth.Grant) {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return
	}
	attrs := map[string]string{"outcome": outcome}
	if principal != "" {
		attrs["principal"] = principal
	}
	if g != nil {
		attrs["class"] = string(g.Class)
		if g.Demoted {
			attrs["demoted"] = "true"
		}
	}
	tr.Record("", obs.SpanID(ctx), "auth.admit", start, time.Since(start), attrs)
}

// edgeGuard is the router-side middleware over the whole cluster proxy.
// It authenticates and quota-admits guarded routes at the edge, then
// strips every client credential before the request travels to a
// replica — forwarding only the signed identity header, minted fresh
// here (an inbound one is a forgery and is always dropped).
func (al *authLayer) edgeGuard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del(auth.IdentityHeader)
		if !authRoutes[r.URL.Path] || r.Method != http.MethodPost {
			stripCredentials(r)
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cred, err := credential(r)
		var p *auth.Principal
		if err == nil {
			p, err = al.authn.Authenticate(cred)
		}
		if err != nil {
			al.reject(w, r.Context(), err)
			return
		}
		g, err := al.enforcer.Admit(p)
		if err != nil {
			al.reject(w, r.Context(), err)
			return
		}
		// Held across the proxied request, so the in-flight ladder sees
		// cluster traffic too. A batch body counts one admission here —
		// the router does not parse bodies; per-entry charging happens
		// only when a replica serves the batch directly.
		defer g.Release()
		if g.Demoted {
			al.demotions.With(p.Name).Inc()
		}
		outcome := "ok"
		if p.Anonymous {
			outcome = "anonymous"
		}
		al.reqs.With(outcome).Inc()
		recordAuthSpan(r.Context(), start, outcome, p.Name, g)
		setPrincipalTag(r.Context(), p.Name)
		stripCredentials(r)
		if al.signer != nil {
			r.Header.Set(auth.IdentityHeader, al.signer.Sign(p, g.Class))
		}
		next.ServeHTTP(w, r)
	})
}

// stripCredentials removes the client's API key from a request about to
// be proxied: keys live only at the edge.
func stripCredentials(r *http.Request) {
	r.Header.Del("Authorization")
	r.Header.Del("X-API-Key")
}

// verifyIdentity checks a forwarded identity header. Presenting one to
// a replica with no -cluster-secret is a claim nothing can verify, so
// it is rejected rather than downgraded to anonymous.
func (al *authLayer) verifyIdentity(hdr string) (*auth.Principal, error) {
	if al.signer == nil {
		return nil, fmt.Errorf("%w: no cluster secret configured", auth.ErrBadIdentity)
	}
	p, _, err := al.signer.Verify(hdr)
	return p, err
}

// tagged threads the resolved principal into the request's
// observability: the edge's root span and request line (via the
// principal tag) and every downstream log line (via a re-bound logger).
func (al *authLayer) tagged(ctx context.Context, p *auth.Principal) context.Context {
	setPrincipalTag(ctx, p.Name)
	return obs.WithLogger(ctx, obs.Logger(ctx).With("principal", p.Name))
}

// reject writes an authentication or quota failure: 401 for requests
// that did not authenticate (without distinguishing why beyond the
// error text), 429 + Retry-After for principals shed past the whole
// degradation ladder.
func (al *authLayer) reject(w http.ResponseWriter, ctx context.Context, err error) {
	var qe *auth.QuotaError
	if errors.As(err, &qe) {
		setPrincipalTag(ctx, qe.Principal)
		al.reqs.With("shed").Inc()
		al.shed.With(qe.Principal, qe.Reason).Inc()
		obs.Logger(ctx).Warn("request shed over quota",
			"principal", qe.Principal, "reason", qe.Reason, "retry_after", qe.Retry)
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	outcome := "unauthenticated"
	switch {
	case errors.Is(err, auth.ErrUnknownKey):
		outcome = "unknown_key"
	case errors.Is(err, auth.ErrBadCredential):
		outcome = "bad_credential"
	case errors.Is(err, auth.ErrBadIdentity):
		outcome = "bad_identity"
	}
	al.reqs.With(outcome).Inc()
	obs.Logger(ctx).Warn("request rejected", "outcome", outcome, "err", err)
	writeError(w, http.StatusUnauthorized, err)
}
