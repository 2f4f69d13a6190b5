package main

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ssync/internal/engine"
	"ssync/internal/obs"
	"ssync/internal/store"
)

// The observability edge of ssyncd, shared by both process roles: every
// request gets a trace (continued from a valid inbound traceparent, or
// minted here) whose ID is the request's one ID, a request-scoped logger
// carrying that ID, and a root span the layers below hang their spans
// under. Spans are the only event stream: a replica's /metrics derives
// its event histograms from them, next to counters and gauges mirrored
// from the engine's Stats snapshot at scrape time.

// maxRequestIDLen bounds an accepted inbound X-Request-ID; longer (or
// invalid) values are replaced with the trace ID rather than echoed, so
// a hostile header cannot smuggle bytes into responses.
const maxRequestIDLen = 64

// acceptRequestID validates a caller-supplied request ID: 1 to 64
// characters from [A-Za-z0-9._-].
func acceptRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// principalTag is a mutable slot the edge plants in the context so the
// auth layer — which resolves the principal later, inside the handler —
// can report it back for the root span and the request log line.
// Written and read on the request goroutine only.
type principalTag struct{ name string }

type principalTagKey struct{}

func withPrincipalTag(ctx context.Context, t *principalTag) context.Context {
	return context.WithValue(ctx, principalTagKey{}, t)
}

// setPrincipalTag records the resolved principal for the enclosing
// edge; a no-op on contexts without the slot (tests, embedders).
func setPrincipalTag(ctx context.Context, name string) {
	if t, ok := ctx.Value(principalTagKey{}).(*principalTag); ok {
		t.name = name
	}
}

// statusWriter captures the status code a handler writes, for the
// request log line and the per-route counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// edge configures the HTTP edge one process role wraps its handler in.
type edge struct {
	log *slog.Logger
	// rec is the flight recorder finished traces are offered to; nil
	// disables recording.
	rec *obs.Recorder
	// slow, when positive, dumps any slower request's span tree to the
	// log at warn level.
	slow time.Duration
	// metrics is the replica role's instrument set; nil in router mode,
	// whose /metrics carries the ssync_cluster_* families instead.
	metrics *edgeMetrics
}

// handler wraps next in the edge: it starts the request's trace, answers
// X-Trace-ID and X-Request-ID (an acceptable inbound value echoed,
// otherwise the trace ID), threads trace, root span and a logger bound
// to the trace ID through the context, and once next returns records
// the root span, offers the trace to the flight recorder, counts the
// request and logs it.
func (e edge) handler(next http.Handler) http.Handler {
	var observe func(obs.Span)
	if e.metrics != nil {
		observe = e.metrics.observeSpan
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Continue the caller's distributed trace when it sent a valid
		// traceparent (the router does, for proxied hops); otherwise mint
		// a fresh trace. Malformed headers are ignored, never echoed.
		var tr *obs.Trace
		if tid, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			tr = obs.ContinueTrace(tid, parent)
		} else {
			tr = obs.NewTrace()
		}
		obs.ObserveSpans(tr, observe)
		rootID := tr.NewSpanID()
		tr.SetRoot(rootID)
		id := r.Header.Get("X-Request-ID")
		if !acceptRequestID(id) {
			id = tr.ID()
		}
		w.Header().Set("X-Request-ID", id)
		w.Header().Set("X-Trace-ID", tr.ID())

		log := e.log.With("trace_id", tr.ID())
		tag := &principalTag{}
		ctx := obs.WithLogger(r.Context(), log)
		ctx = obs.WithTrace(ctx, tr)
		ctx = obs.WithSpan(ctx, rootID)
		ctx = withPrincipalTag(ctx, tag)

		route := obs.RouteLabel(r.URL.Path)
		if e.metrics != nil {
			e.metrics.begin()
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if e.metrics != nil {
			e.metrics.end(route, sw.status, elapsed)
		}

		rootAttrs := map[string]string{
			"method": r.Method, "route": route,
			"status": strconv.Itoa(sw.status),
		}
		if tag.name != "" {
			rootAttrs["principal"] = tag.name
		}
		tr.Record(rootID, tr.RemoteParent(), "http "+route, start, elapsed, rootAttrs)
		e.rec.Record(tr, route, tag.name, sw.status, elapsed)

		attrs := []any{
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"dur_ms", float64(elapsed) / float64(time.Millisecond),
		}
		if tag.name != "" {
			attrs = append(attrs, "principal", tag.name)
		}
		log.Info("http request", attrs...)
		dumpSlowTrace(ctx, log, e.slow, tr, route, elapsed)
	})
}

// dumpSlowTrace logs a request's full span tree at warn level when it
// ran longer than the -trace-slow threshold — tail latency leaves its
// decomposition in the log even at the default info level, whether or
// not anyone ever fetches the trace from the recorder.
func dumpSlowTrace(ctx context.Context, log *slog.Logger, slow time.Duration, tr *obs.Trace, route string, elapsed time.Duration) {
	if slow > 0 && elapsed >= slow {
		doc := obs.TraceRecord{TraceID: tr.ID(), Spans: tr.Spans()}.Document()
		log.Warn("slow request", "route", route,
			"dur_ms", float64(elapsed)/float64(time.Millisecond),
			"spans", "\n"+doc.RenderTree())
		return
	}
	if log.Enabled(ctx, slog.LevelDebug) {
		for _, sp := range tr.Spans() {
			log.Debug("trace span", "span", sp.Name,
				"start_ms", float64(sp.Start)/float64(time.Millisecond),
				"dur_ms", float64(sp.Dur)/float64(time.Millisecond))
		}
	}
}

// edgeMetrics are the replica role's edge instruments: the ssync_http_*
// families and the /v2/stats request counter, fed per request, and the
// event histograms, derived from the spans of every trace the edge
// starts.
type edgeMetrics struct {
	requests                    atomic.Uint64
	httpReqs, httpDur, inflight *obs.Metric
	passDur, queueWait, diskOp  *obs.Metric
}

func newEdgeMetrics(reg *obs.Registry) *edgeMetrics {
	return &edgeMetrics{
		httpReqs: reg.Counter("ssync_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		httpDur: reg.Histogram("ssync_http_request_duration_seconds",
			"HTTP request duration, by route.", nil, "route"),
		inflight: reg.Gauge("ssync_http_requests_inflight",
			"HTTP requests currently being served."),
		passDur: reg.Histogram("ssync_pass_duration_seconds",
			"Wall time of executed compiler passes, by pass name.", nil, "pass"),
		queueWait: reg.Histogram("ssync_sched_queue_wait_seconds",
			"Admission-queue wait of granted worker slots, by priority class.", nil, "class"),
		diskOp: reg.Histogram("ssync_store_disk_op_seconds",
			"Disk cache tier blob operation latency, by operation and outcome.", nil, "op", "outcome"),
	}
}

func (m *edgeMetrics) begin() {
	m.requests.Add(1)
	m.inflight.With().Inc()
}

func (m *edgeMetrics) end(route string, status int, elapsed time.Duration) {
	m.inflight.With().Add(-1)
	m.httpReqs.With(route, strconv.Itoa(status)).Inc()
	m.httpDur.Observe(elapsed.Seconds(), route)
}

// observeSpan derives the event histograms from one span. Every executed
// pass ("pass:<name>"), every slot grant that queued ("sched.queue") and
// every disk-tier blob operation ("store.disk") is a span, and the trace
// hands each one here whether or not it kept it under its span cap, so
// the histograms count every event exactly once.
func (m *edgeMetrics) observeSpan(sp obs.Span) {
	switch {
	case strings.HasPrefix(sp.Name, "pass:"):
		m.passDur.Observe(sp.Dur.Seconds(), strings.TrimPrefix(sp.Name, "pass:"))
	case sp.Name == "sched.queue":
		m.queueWait.Observe(sp.Dur.Seconds(), sp.Attrs["class"])
	case sp.Name == "store.disk":
		m.diskOp.Observe(sp.Dur.Seconds(), sp.Attrs["op"], sp.Attrs["outcome"])
	}
}

// snapshotMetrics are the counter/gauge families mirrored from one
// engine.Stats snapshot per scrape — the layers already count these
// internally, so the registry just republishes them instead of
// double-instrumenting every code path. Counter cells are Set (not
// Add) because the sources are themselves monotone.
type snapshotMetrics struct {
	compiled, coalesced, compileErrors *obs.Metric

	storeHits, storeMisses, storePuts, storeErrors *obs.Metric
	storeEvictions, storeEntries                   *obs.Metric
	diskBytes, diskEntries, diskEvict, diskCorrupt *obs.Metric

	schedSlots, schedBusy, schedDepth    *obs.Metric
	schedAdmitted, schedShed, schedAband *obs.Metric
	schedAvgService                      *obs.Metric

	princAdmitted, princShed, princInflight *obs.Metric

	passRuns, passHits, passSeconds *obs.Metric

	simApplies                 *obs.Metric
	simRefHits, simRefMisses   *obs.Metric
	simRefEntries, simRefBytes *obs.Metric
}

func newSnapshotMetrics(reg *obs.Registry) *snapshotMetrics {
	return &snapshotMetrics{
		compiled: reg.Counter("ssync_engine_compiled_total",
			"Compilations executed (cache hits and coalesced joins excluded)."),
		coalesced: reg.Counter("ssync_engine_coalesced_total",
			"Requests served by attaching to an identical in-flight compilation."),
		compileErrors: reg.Counter("ssync_engine_errors_total",
			"Requests that ended in an error."),

		storeHits: reg.Counter("ssync_store_hits_total",
			"Artifact store lookups served, by cache (results/stages) and tier.", "cache", "tier"),
		storeMisses: reg.Counter("ssync_store_misses_total",
			"Artifact store lookups no tier could serve, by cache.", "cache"),
		storePuts: reg.Counter("ssync_store_puts_total",
			"Artifacts stored, by cache.", "cache"),
		storeErrors: reg.Counter("ssync_store_errors_total",
			"Artifact encode/decode/write failures absorbed as misses, by cache.", "cache"),
		storeEvictions: reg.Counter("ssync_store_evictions_total",
			"Memory-tier LRU evictions, by cache.", "cache"),
		storeEntries: reg.Gauge("ssync_store_entries",
			"Current memory-tier entry count, by cache.", "cache"),
		diskBytes: reg.Gauge("ssync_store_disk_bytes",
			"Current disk-tier footprint in bytes."),
		diskEntries: reg.Gauge("ssync_store_disk_entries",
			"Current disk-tier blob count."),
		diskEvict: reg.Counter("ssync_store_disk_evictions_total",
			"Disk-tier LRU evictions."),
		diskCorrupt: reg.Counter("ssync_store_disk_corrupt_total",
			"Disk blobs dropped after failing validation."),

		schedSlots: reg.Gauge("ssync_sched_slots",
			"Configured worker-slot budget."),
		schedBusy: reg.Gauge("ssync_sched_busy",
			"Worker slots currently held."),
		schedDepth: reg.Gauge("ssync_sched_queue_depth",
			"Current admission-queue depth, by priority class.", "class"),
		schedAdmitted: reg.Counter("ssync_sched_admitted_total",
			"Requests that acquired a worker slot, by priority class.", "class"),
		schedShed: reg.Counter("ssync_sched_shed_total",
			"Requests rejected by admission control, by class and reason.", "class", "reason"),
		schedAband: reg.Counter("ssync_sched_abandoned_total",
			"Waiters that left the admission queue unserved, by priority class.", "class"),
		schedAvgService: reg.Gauge("ssync_sched_avg_service_seconds",
			"EWMA of slot-hold durations behind admission wait estimates."),

		// Principal labels are cardinality-bounded: names come from the
		// validated keys file, plus "anonymous" and the scheduler's
		// overflow bucket.
		princAdmitted: reg.Counter("ssync_sched_principal_admitted_total",
			"Requests that acquired a worker slot, by principal.", "principal"),
		princShed: reg.Counter("ssync_sched_principal_shed_total",
			"Requests shed by admission control, by principal.", "principal"),
		princInflight: reg.Gauge("ssync_sched_principal_inflight",
			"Worker slots currently held, by principal.", "principal"),

		passRuns: reg.Counter("ssync_pass_runs_total",
			"Pipeline stages executed, by pass name.", "pass"),
		passHits: reg.Counter("ssync_pass_cache_hits_total",
			"Pipeline stages skipped via a restored cached prefix, by pass name.", "pass"),
		passSeconds: reg.Counter("ssync_pass_seconds_total",
			"Cumulative wall time of executed pipeline stages, by pass name.", "pass"),

		simApplies: reg.Counter("ssync_sim_applies_total",
			"State-vector gate applications."),
		simRefHits: reg.Counter("ssync_sim_ref_cache_hits_total",
			"Verify calls served by an already-simulated shared reference state."),
		simRefMisses: reg.Counter("ssync_sim_ref_cache_misses_total",
			"Verify calls that had to simulate their reference state."),
		simRefEntries: reg.Gauge("ssync_sim_ref_cache_entries",
			"Reference states currently cached for shared verification."),
		simRefBytes: reg.Gauge("ssync_sim_ref_cache_bytes",
			"Amplitude bytes held by the shared verification-reference cache."),
	}
}

// update mirrors one engine snapshot into the families. Called under
// the registry's scrape hook, so a scrape always sees one coherent
// snapshot.
func (m *snapshotMetrics) update(st engine.Stats) {
	m.compiled.With().Set(float64(st.Compiled))
	m.coalesced.With().Set(float64(st.Coalesced))
	m.compileErrors.With().Set(float64(st.Errors))

	m.updateStore("results", st.Results)
	if st.Stages.Mem.Capacity > 0 {
		m.updateStore("stages", st.Stages)
	}
	// Only the result cache has a disk tier.
	if st.Results.HasDisk {
		d := st.Results.Disk
		m.diskBytes.With().Set(float64(d.Bytes))
		m.diskEntries.With().Set(float64(d.Entries))
		m.diskEvict.With().Set(float64(d.Evictions))
		m.diskCorrupt.With().Set(float64(d.Corrupt))
	}

	if st.Sched != nil {
		s := st.Sched
		m.schedSlots.With().Set(float64(s.Slots))
		m.schedBusy.With().Set(float64(s.Busy))
		m.schedAvgService.With().Set(s.AvgService.Seconds())
		for _, c := range s.Classes {
			class := string(c.Class)
			m.schedDepth.With(class).Set(float64(c.Depth))
			m.schedAdmitted.With(class).Set(float64(c.Admitted))
			m.schedShed.With(class, "queue_full").Set(float64(c.ShedQueueFull))
			m.schedShed.With(class, "deadline").Set(float64(c.ShedDeadline))
			m.schedAband.With(class).Set(float64(c.Abandoned))
		}
		for _, p := range s.Principals {
			m.princAdmitted.With(p.Name).Set(float64(p.Admitted))
			m.princShed.With(p.Name).Set(float64(p.Shed))
			m.princInflight.With(p.Name).Set(float64(p.InFlight))
		}
	}

	for name, ps := range st.Passes {
		m.passRuns.With(name).Set(float64(ps.Runs))
		m.passHits.With(name).Set(float64(ps.CacheHits))
		m.passSeconds.With(name).Set(ps.Total.Seconds())
	}

	m.simApplies.With().Set(float64(st.Sim.Applies))
	m.simRefHits.With().Set(float64(st.Sim.RefCache.Hits))
	m.simRefMisses.With().Set(float64(st.Sim.RefCache.Misses))
	m.simRefEntries.With().Set(float64(st.Sim.RefCache.Entries))
	m.simRefBytes.With().Set(float64(st.Sim.RefCache.Bytes))
}

func (m *snapshotMetrics) updateStore(cache string, st store.TieredStats) {
	m.storeHits.With(cache, "memory").Set(float64(st.MemHits))
	m.storeHits.With(cache, "disk").Set(float64(st.DiskHits))
	m.storeMisses.With(cache).Set(float64(st.Misses))
	m.storePuts.With(cache).Set(float64(st.Puts))
	m.storeErrors.With(cache).Set(float64(st.Errors))
	m.storeEvictions.With(cache).Set(float64(st.Mem.Evictions))
	m.storeEntries.With(cache).Set(float64(st.Mem.Entries))
}
