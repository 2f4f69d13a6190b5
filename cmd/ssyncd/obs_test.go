package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ssync/internal/engine"
	"ssync/internal/obs"
)

// observedServer builds a server wired as main wires it, logging at
// debug, around a bounded, cached engine, returning the test server and
// the log buffer.
func observedServer(t *testing.T) (*httptest.Server, *syncBuffer) {
	t.Helper()
	buf := new(syncBuffer)
	srv := newServer(engine.New(engine.Options{Workers: 2, StageCacheSize: 64}), 2, time.Minute)
	srv.log = slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, buf
}

// syncBuffer serialises writes: the HTTP server logs from request
// goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := observedServer(t)

	// Drive some traffic so every family has cells: a compile (miss),
	// its repeat (hit), and a bad route.
	var first, second compileResponse
	postJSON(t, ts.URL+"/v2/compile", compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, &first)
	postJSON(t, ts.URL+"/v2/compile", compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, &second)
	if first.Error != "" || !second.CacheHit {
		t.Fatalf("traffic setup failed: first.err=%q second.hit=%v", first.Error, second.CacheHit)
	}
	http.Get(ts.URL + "/no/such/route")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every line must fit the exposition grammar.
	sampleRe := regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Errorf("bad exposition line: %q", line)
		}
	}

	// The acceptance families: scheduler, store, pass latency and HTTP.
	for _, want := range []string{
		"# TYPE ssync_sched_queue_depth gauge",
		`ssync_sched_admitted_total{class="interactive"}`,
		`ssync_sched_shed_total{class="interactive",reason="queue_full"}`,
		`ssync_store_hits_total{cache="results",tier="memory"} 1`,
		`ssync_store_misses_total{cache="results"} 1`,
		"# TYPE ssync_pass_duration_seconds histogram",
		`ssync_pass_runs_total{pass=`,
		"# TYPE ssync_http_request_duration_seconds histogram",
		`ssync_http_requests_total{route="/v2/compile",code="200"} 2`,
		`ssync_http_requests_total{route="other",code="404"} 1`,
		"ssync_engine_compiled_total 1",
		"ssync_sched_slots 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRequestIDEndToEnd pins the one-ID contract: the request ID the
// edge mints is the trace ID, named by both response headers, the body's
// trace_id and the request's log lines; an acceptable inbound
// X-Request-ID is echoed, and a hostile one is replaced by the trace ID.
func TestRequestIDEndToEnd(t *testing.T) {
	ts, logBuf := observedServer(t)

	var out compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile", compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, &out)
	id := resp.Header.Get("X-Request-ID")
	if !obs.IsTraceID(id) {
		t.Fatalf("minted X-Request-ID = %q, want a 32-hex trace ID", id)
	}
	if tid := resp.Header.Get("X-Trace-ID"); tid != id {
		t.Errorf("X-Request-ID = %q, X-Trace-ID = %q; want one ID", id, tid)
	}
	if out.TraceID != id {
		t.Errorf("body trace_id = %q, header = %q", out.TraceID, id)
	}
	// At debug level the request's pass executions are logged under its
	// ID, next to the edge's request line.
	logs := logBuf.String()
	idLines := 0
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "trace_id="+id) {
			idLines++
		}
	}
	if idLines < 2 {
		t.Errorf("only %d log lines carry trace_id=%s; want the edge line plus debug lines:\n%s", idLines, id, logs)
	}
	if !strings.Contains(logs, "msg=\"pass done\"") {
		t.Errorf("debug pass lines missing:\n%s", logs)
	}
	if !strings.Contains(logs, "msg=\"trace span\"") {
		t.Errorf("debug trace-span dump missing:\n%s", logs)
	}

	get := func(inbound string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/v2/stats", nil)
		req.Header.Set("X-Request-ID", inbound)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// An inbound X-Request-ID is echoed verbatim; the trace is still
	// the edge's own.
	resp2 := get("caller-chosen.id-1")
	if got := resp2.Header.Get("X-Request-ID"); got != "caller-chosen.id-1" {
		t.Errorf("inbound ID not echoed: got %q", got)
	}
	if tid := resp2.Header.Get("X-Trace-ID"); !obs.IsTraceID(tid) {
		t.Errorf("X-Trace-ID = %q beside an inbound request ID", tid)
	}
	// A hostile inbound ID (bad characters) is replaced by the trace ID.
	resp3 := get(`evil id{"}`)
	if got, tid := resp3.Header.Get("X-Request-ID"), resp3.Header.Get("X-Trace-ID"); got != tid || !obs.IsTraceID(got) {
		t.Errorf("hostile inbound ID handled badly: X-Request-ID %q, X-Trace-ID %q", got, tid)
	}
}

func TestCoalescedFollowerGetsOwnRequestID(t *testing.T) {
	// Server-level version of the engine proof: two concurrent identical
	// compiles; the coalesced follower's response carries its own trace.
	ts, _ := observedServer(t)

	body := compileRequest{Benchmark: "QFT_16", Topology: "G-2x3", Capacity: 8}
	type result struct {
		out compileResponse
		id  string
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var out compileResponse
			resp := postJSON(t, ts.URL+"/v2/compile", body, &out)
			results <- result{out, resp.Header.Get("X-Request-ID")}
		}()
	}
	a, b := <-results, <-results
	if a.out.Error != "" || b.out.Error != "" {
		t.Fatalf("compile errors: %q / %q", a.out.Error, b.out.Error)
	}
	if a.id == b.id {
		t.Fatalf("both responses share one trace ID %q", a.id)
	}
	if a.out.TraceID != a.id || b.out.TraceID != b.id {
		t.Errorf("body/header ID mismatch: %q/%q and %q/%q", a.out.TraceID, a.id, b.out.TraceID, b.id)
	}
	// Whether the second request coalesced or hit the cache depends on
	// timing; either way both carried distinct IDs, which is the claim.
}

func TestAcceptRequestID(t *testing.T) {
	for id, want := range acceptRequestIDCases {
		if got := acceptRequestID(id); got != want {
			t.Errorf("acceptRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestDebugMux(t *testing.T) {
	srv := newServer(engine.New(engine.Options{Workers: 1}), 1, time.Minute)
	ts := httptest.NewServer(debugMux(srv))
	defer ts.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/metrics":             http.StatusOK,
		"/v2/compile":          http.StatusNotFound, // service routes are NOT on the debug port
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
