package main

import (
	"net/http"
	"runtime"
	"time"

	"ssync/internal/obs"
)

// The flight-recorder API surface: GET /v2/traces lists retained traces
// (filterable by route, principal and min_ms), GET /v2/traces/<id>
// returns one full span tree. Replicas serve their own recorder; in
// router mode the router additionally stitches replica spans into its
// trace (internal/cluster). Both endpoints are read-only diagnostics
// and stay unauthenticated, like /metrics and /v2/stats.

// handleTracesList serves GET /v2/traces.
func (s *server) handleTracesList(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		httpError(w, http.StatusNotFound, "flight recorder disabled (-trace-buffer 0)")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": s.recorder.List(obs.ParseTraceQuery(r.URL.Query())),
	})
}

// handleTraceGet serves GET /v2/traces/{id}. Hostile IDs — overlong,
// non-hex, path-shaped — fail the shape check and 404 without touching
// the recorder.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.IsTraceID(id) {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	if s.recorder == nil {
		httpError(w, http.StatusNotFound, "flight recorder disabled (-trace-buffer 0)")
		return
	}
	rec, ok := s.recorder.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	writeJSON(w, http.StatusOK, rec.Document())
}

// registerBuildInfo publishes the build identity and process uptime on
// reg: ssync_build_info{version,go_version} (constant 1, the standard
// Prometheus info-metric idiom) and ssync_uptime_seconds refreshed at
// scrape time.
func registerBuildInfo(reg *obs.Registry, start time.Time) {
	reg.Gauge("ssync_build_info",
		"Build identity; constant 1, labelled with the ssyncd version and Go toolchain.",
		"version", "go_version").With(version, runtime.Version()).Set(1)
	uptime := reg.Gauge("ssync_uptime_seconds",
		"Seconds since this process started.")
	reg.OnScrape(func() { uptime.With().Set(time.Since(start).Seconds()) })
}

// registerTraceMetrics publishes the ssync_traces_* family from a
// recorder-stats snapshot taken at scrape time. stats is a closure so
// the caller may swap its recorder after registration.
func registerTraceMetrics(reg *obs.Registry, stats func() obs.RecorderStats) {
	recorded := reg.Counter("ssync_traces_recorded_total",
		"Completed request traces offered to the flight recorder.")
	sampled := reg.Counter("ssync_traces_sampled_total",
		"Traces retained by the flight recorder, by retention class.", "class")
	evicted := reg.Counter("ssync_traces_evicted_total",
		"Retained traces evicted to admit newer ones, by retention class.", "class")
	dropped := reg.Counter("ssync_traces_dropped_total",
		"Completed traces that fit no retention class and were not kept.")
	live := reg.Gauge("ssync_traces_live",
		"Traces currently held by the flight recorder.")
	reg.OnScrape(func() {
		st := stats()
		recorded.With().Set(float64(st.Recorded))
		dropped.With().Set(float64(st.Dropped))
		live.With().Set(float64(st.Live))
		for _, class := range []string{obs.ClassError, obs.ClassSlow, obs.ClassSampled} {
			sampled.With(class).Set(float64(st.Retained[class]))
			evicted.With(class).Set(float64(st.Evicted[class]))
		}
	})
}
