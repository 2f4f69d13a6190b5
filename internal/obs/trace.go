package obs

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one recorded trace event: a named interval offset from the
// trace origin, with an identity and a parent that place it in the
// request's span tree. The edge records the root HTTP span, the engine
// records admission waits, cache probes and coalesce waits under it,
// the pass runner records every executed pass under the compile span,
// and the cluster router records key-resolution and per-attempt forward
// spans — so a single request's wall time decomposes into a tree of
// where it actually went, across processes.
type Span struct {
	// ID is the span's 16-hex identity, unique within its trace.
	ID string `json:"id"`
	// Parent is the ID of the enclosing span; "" marks a root. A remote
	// parent (the router's proxy-hop span, carried in via traceparent)
	// is legal: the tree is stitched at read time.
	Parent string `json:"parent,omitempty"`
	// Name identifies the event ("admission", "cache.results",
	// "pass:route-ssync", "coalesce.wait", "cluster.forward", ...).
	Name string `json:"name"`
	// Start is the offset from the trace origin (the moment the request
	// entered this process's edge).
	Start time.Duration `json:"start"`
	// Dur is the interval length.
	Dur time.Duration `json:"dur"`
	// Attrs carries small key/value annotations (priority class,
	// principal, cache tier, shard URL, spill reason); nil when none.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// maxTraceSpans bounds one trace's span count so a pathological request
// (a huge batch, a runaway pipeline) cannot grow a trace without limit;
// spans beyond the cap are counted in Dropped instead of recorded. The
// root span is always recorded.
const maxTraceSpans = 512

// Trace collects one request's span tree. Safe for concurrent use — a
// coalesced leader and its followers may record from different
// goroutines.
type Trace struct {
	id     string
	origin time.Time
	// remoteParent is the caller's span ID when this trace continues an
	// inbound traceparent (a router's proxy-hop span); the edge parents
	// its root span to it so stitched trees connect across processes.
	remoteParent string
	// observe, when set, sees every span offered to Record (see
	// ObserveSpans).
	observe func(Span)

	mu      sync.Mutex
	root    string
	spans   []Span
	dropped int
}

// NewTrace starts a fresh trace whose origin is now, under a newly
// minted trace ID.
func NewTrace() *Trace { return &Trace{id: newHexID(16), origin: time.Now()} }

// ContinueTrace starts a local trace segment that joins a caller's
// distributed trace: spans record under the caller's trace ID, and the
// root span the edge records (SetRoot + Record) should name
// parentSpanID as its parent so the remote tree stitches correctly.
// Callers validate the inbound IDs first (ParseTraceparent).
func ContinueTrace(traceID, parentSpanID string) *Trace {
	return &Trace{id: traceID, origin: time.Now(), remoteParent: parentSpanID}
}

// ID is the 32-hex trace identity shared by every process that
// contributes spans to this request.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Origin is the trace's local zero point.
func (t *Trace) Origin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.origin
}

// RemoteParent is the inbound parent span ID this trace continues, or
// "" for a trace minted locally.
func (t *Trace) RemoteParent() string {
	if t == nil {
		return ""
	}
	return t.remoteParent
}

// NewSpanID mints a span ID for this trace without recording anything —
// how a caller parents children to a span it will only Record once its
// interval ends (tree assembly is by ID, so recording order is free).
func (t *Trace) NewSpanID() string {
	if t == nil {
		return ""
	}
	return newHexID(8)
}

// ObserveSpans makes fn see every span Record is offered on t, recorded
// or dropped over the per-trace cap alike, so metrics derived from
// spans count every event even when the trace itself is truncated. fn
// runs on the recording goroutine outside the trace's lock and must be
// safe for concurrent use. Call it once, before t is shared.
func ObserveSpans(t *Trace, fn func(Span)) { t.observe = fn }

// SetRoot declares the trace's root span ID before the root span itself
// is recorded, so a span recorded without a parent attaches to the
// request's root while the request is still in flight.
func (t *Trace) SetRoot(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.root = id
	t.mu.Unlock()
}

// Root returns the declared root span ID, or "".
func (t *Trace) Root() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Record adds one fully specified span from its absolute start time and
// duration. id "" mints one; parent "" parents to the declared root.
// Past maxTraceSpans the span is dropped (counted), except the root
// span itself, which is always recorded. Either way the span is then
// handed to the trace's observer, if any.
func (t *Trace) Record(id, parent, name string, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	if id == "" {
		id = newHexID(8)
	}
	t.mu.Lock()
	if parent == "" && id != t.root {
		parent = t.root
	}
	sp := Span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin), Dur: d, Attrs: attrs,
	}
	if len(t.spans) >= maxTraceSpans && id != t.root {
		t.dropped++
	} else {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
	if t.observe != nil {
		t.observe(sp)
	}
}

// Child mints a span ID, records the span under parent, and returns the
// ID — the one-shot form for spans whose interval is already over.
func (t *Trace) Child(parent, name string, start time.Time, d time.Duration) string {
	if t == nil {
		return ""
	}
	id := newHexID(8)
	t.Record(id, parent, name, start, d, nil)
	return id
}

// Spans returns a copy of the recorded spans ordered by start offset.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped counts spans discarded over the per-trace cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WithTrace returns ctx carrying the trace; downstream layers recover
// it with TraceFrom and record spans into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxTrace, t)
}

// TraceFrom returns the trace carried by ctx, or nil when the request
// is not being traced — recording against a nil *Trace is a no-op, so
// instrumentation sites need no guard.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxTrace).(*Trace)
	return t
}

// WithSpan returns ctx carrying id as the current span — the parent any
// downstream layer should record its spans under. The edge sets the
// root span, the engine re-points it at its compile span before running
// passes, and so on down the tree.
func WithSpan(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxSpan, id)
}

// SpanID returns the current span ID carried by ctx, or "" (which
// Record resolves to the trace root).
func SpanID(ctx context.Context) string {
	id, _ := ctx.Value(ctxSpan).(string)
	return id
}

// ---- W3C traceparent propagation ----

// FormatTraceparent renders the version-00 W3C traceparent header for
// one outbound hop: the trace ID plus the caller-side span the callee's
// root should attach under.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent validates and splits an inbound traceparent header.
// Only version 00 with a well-formed, non-zero 32-hex trace ID and
// 16-hex parent span ID is accepted; anything else — absent, truncated,
// uppercase, oversized, zeroed — returns ok=false and the edge mints a
// fresh trace instead. Strict validation is the hostile-input boundary:
// an accepted trace ID is safe to echo into headers, logs and URLs.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		return "", "", false
	}
	if h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	traceID, spanID = h[3:35], h[36:52]
	if !isLowerHex(traceID) || !isLowerHex(spanID) || !isLowerHex(h[53:]) {
		return "", "", false
	}
	if allZero(traceID) || allZero(spanID) {
		return "", "", false
	}
	return traceID, spanID, true
}

// IsTraceID reports whether s has the shape of a trace ID (32 lowercase
// hex characters) — the lookup-side validation for /v2/traces/<id>, so
// hostile IDs (overlong, path-shaped, non-hex) are rejected before any
// map probe or fan-out.
func IsTraceID(s string) bool { return len(s) == 32 && isLowerHex(s) }

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
