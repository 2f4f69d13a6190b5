package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/engine"
	"ssync/internal/obs"
)

// fetchTraceDoc GETs /v2/traces/<id> and decodes the span tree.
// Recording happens after the response is written, so the trace of a
// request a test just made may land in the recorder a beat later —
// retry until the predicate holds or the deadline passes, returning
// the last document either way.
func fetchTraceDoc(t *testing.T, base, id string, ready func(obs.TraceDoc) bool) obs.TraceDoc {
	t.Helper()
	var doc obs.TraceDoc
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(base + "/v2/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ready == nil || ready(doc) {
				return doc
			}
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			return doc
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spansByName(doc obs.TraceDoc) map[string][]obs.SpanDoc {
	m := map[string][]obs.SpanDoc{}
	for _, sp := range doc.Spans {
		m[sp.Name] = append(m[sp.Name], sp)
	}
	return m
}

// TestTraceEndToEndSingleReplica: one compile against a plain replica
// leaves a retrievable trace whose spans — edge root, compile,
// admission, scheduler queue, cache probe, every pass — form one
// connected tree, and the response body/header both name the trace.
func TestTraceEndToEndSingleReplica(t *testing.T) {
	ts, _ := observedServer(t)

	var out compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile", compileRequest{Benchmark: "QFT_12", Topology: "G-2x3", Capacity: 8}, &out)
	if out.Error != "" {
		t.Fatalf("compile error: %q", out.Error)
	}
	headerID := resp.Header.Get("X-Trace-ID")
	if !obs.IsTraceID(headerID) {
		t.Fatalf("X-Trace-ID = %q, want a 32-hex trace ID", headerID)
	}
	if out.TraceID != headerID {
		t.Fatalf("body trace_id = %q, header X-Trace-ID = %q", out.TraceID, headerID)
	}

	doc := fetchTraceDoc(t, ts.URL, headerID, func(d obs.TraceDoc) bool {
		return len(d.Spans) > 0
	})
	if doc.TraceID != headerID {
		t.Fatalf("fetched trace %q, want %q", doc.TraceID, headerID)
	}

	byName := spansByName(doc)
	// sched.queue only appears when the request actually queued; with
	// free slots admission is immediate, so it is not required here.
	for _, want := range []string{"http /v2/compile", "compile", "admission", "cache.results"} {
		if len(byName[want]) == 0 {
			t.Errorf("trace missing span %q; have:\n%s", want, doc.RenderTree())
		}
	}
	passes := 0
	for name := range byName {
		if strings.HasPrefix(name, "pass:") {
			passes++
		}
	}
	if passes == 0 {
		t.Errorf("trace has no pass:* spans:\n%s", doc.RenderTree())
	}

	// Structure: one root, and every other span's parent resolves.
	ids := map[string]bool{}
	for _, sp := range doc.Spans {
		ids[sp.ID] = true
	}
	roots := 0
	for _, sp := range doc.Spans {
		if sp.Parent == "" {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("span %q has dangling parent %q:\n%s", sp.Name, sp.Parent, doc.RenderTree())
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want 1:\n%s", roots, doc.RenderTree())
	}
	if byName["admission"][0].Parent != byName["compile"][0].ID {
		t.Errorf("admission should hang under compile:\n%s", doc.RenderTree())
	}
}

// TestTraceStitchedAcrossFleet is the acceptance proof: a compile
// routed through a recorder-equipped router comes back as ONE trace at
// GET /v2/traces/<id> on the router, with router-side spans (key
// resolution, the forward hop) and replica-side spans (admission,
// passes, cache probes) spliced under the correct parents — and the
// replica spans all tagged with exactly one replica's URL.
func TestTraceStitchedAcrossFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a replica fleet")
	}
	dir := t.TempDir()
	var reps []*clusterReplica
	var urls []string
	for i := 0; i < 3; i++ {
		rep := newClusterReplica(t, dir)
		reps = append(reps, rep)
		urls = append(urls, rep.hts.URL)
	}
	rec := obs.NewRecorder(obs.RecorderOptions{})
	router, err := cluster.New(cluster.Options{
		Replicas:       urls,
		KeyFn:          routerRequestKey,
		HealthInterval: 25 * time.Millisecond,
		DownAfter:      1,
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	front := httptest.NewServer(edge{log: logger, rec: rec}.handler(router))
	t.Cleanup(front.Close)

	out, err := compileVia(front.URL, `{"benchmark":"QFT_10","topology":"G-2x3"}`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Error != "" {
		t.Fatalf("routed compile error: %q", out.Error)
	}
	if !obs.IsTraceID(out.TraceID) {
		t.Fatalf("routed response trace_id = %q, want a trace ID", out.TraceID)
	}

	byName := map[string][]obs.SpanDoc{}
	doc := fetchTraceDoc(t, front.URL, out.TraceID, func(d obs.TraceDoc) bool {
		byName = spansByName(d)
		return len(byName["cluster.forward"]) > 0 && len(byName["admission"]) > 0
	})
	if doc.TraceID != out.TraceID {
		t.Fatalf("stitched trace = %q, want %q", doc.TraceID, out.TraceID)
	}

	// Router-side spans carry no process tag (they're the base document).
	for _, want := range []string{"cluster.key", "cluster.forward"} {
		sps := byName[want]
		if len(sps) == 0 {
			t.Fatalf("stitched trace missing router span %q:\n%s", want, doc.RenderTree())
		}
		if sps[0].Process != "" {
			t.Errorf("router span %q tagged with process %q", want, sps[0].Process)
		}
	}
	// Replica-side spans are process-tagged, all with ONE replica URL.
	procs := map[string]bool{}
	for _, sp := range doc.Spans {
		if sp.Process != "" {
			procs[sp.Process] = true
		}
	}
	if len(procs) != 1 {
		t.Fatalf("replica spans name %d processes, want exactly 1: %v\n%s", len(procs), procs, doc.RenderTree())
	}
	for proc := range procs {
		found := false
		for _, u := range urls {
			if proc == u {
				found = true
			}
		}
		if !found {
			t.Errorf("span process %q is not a replica URL %v", proc, urls)
		}
	}
	for _, want := range []string{"admission", "cache.results"} {
		sps := byName[want]
		if len(sps) == 0 {
			t.Fatalf("stitched trace missing replica span %q:\n%s", want, doc.RenderTree())
		}
		if sps[0].Process == "" {
			t.Errorf("replica span %q lost its process tag", want)
		}
	}
	hasPass := false
	for name := range byName {
		if strings.HasPrefix(name, "pass:") {
			hasPass = true
		}
	}
	if !hasPass {
		t.Errorf("stitched trace has no replica pass:* spans:\n%s", doc.RenderTree())
	}

	// The splice point: the replica's own root span ("http /v2/compile",
	// process-tagged) must hang under the router's cluster.forward span,
	// which itself hangs under the router's root.
	forward := byName["cluster.forward"][0]
	var replicaRoot *obs.SpanDoc
	for i, sp := range doc.Spans {
		if sp.Process != "" && strings.HasPrefix(sp.Name, "http ") {
			replicaRoot = &doc.Spans[i]
		}
	}
	if replicaRoot == nil {
		t.Fatalf("no process-tagged http root span:\n%s", doc.RenderTree())
	}
	if replicaRoot.Parent != forward.ID {
		t.Errorf("replica root parent = %q, want forward span %q:\n%s",
			replicaRoot.Parent, forward.ID, doc.RenderTree())
	}
	routerRoot := byName["http /v2/compile"]
	foundEdgeRoot := false
	for _, sp := range routerRoot {
		if sp.Process == "" && sp.Parent == "" {
			foundEdgeRoot = true
			if forward.Parent != sp.ID {
				t.Errorf("cluster.forward parent = %q, want router root %q", forward.Parent, sp.ID)
			}
		}
	}
	if !foundEdgeRoot {
		t.Errorf("no router-side root span:\n%s", doc.RenderTree())
	}

	// The listing on the router sees the routed request too.
	resp, err := http.Get(front.URL + "/v2/traces?route=/v2/compile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range list.Traces {
		if s.TraceID == out.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("routed trace %s missing from router listing (%d entries)", out.TraceID, len(list.Traces))
	}
}

// TestTraceAPIHostileInputs: garbage trace IDs 404 without a 500, and
// malformed traceparent headers are ignored rather than echoed into a
// continued trace.
func TestTraceAPIHostileInputs(t *testing.T) {
	ts, _ := observedServer(t)

	for _, id := range []string{
		"nope",
		strings.Repeat("a", 31),
		strings.Repeat("a", 33),
		strings.Repeat("a", 4096),          // overlong
		strings.Repeat("A", 32),            // uppercase
		strings.Repeat("zz", 16),           // non-hex
		strings.Repeat("ab", 16),           // valid shape, unknown
		"..%2f..%2fetc%2fpasswd00000000aa", // path-shaped
	} {
		resp, err := http.Get(ts.URL + "/v2/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v2/traces/%.40s = %d, want 404", id, resp.StatusCode)
		}
	}

	// A malformed traceparent must not be adopted: the server mints a
	// fresh trace instead of continuing the hostile one.
	evilTrace := strings.Repeat("ab", 16)
	for _, tp := range []string{
		"garbage",
		"00-" + evilTrace + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + strings.ToUpper(evilTrace) + "-" + strings.Repeat("cd", 8) + "-01",
		"00-" + evilTrace + "-" + strings.Repeat("cd", 8) + "-01extra",
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/v2/stats", nil)
		req.Header.Set("traceparent", tp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Trace-ID")
		if !obs.IsTraceID(got) {
			t.Errorf("traceparent %q: X-Trace-ID = %q, want a fresh minted ID", tp, got)
		}
		if got == evilTrace {
			t.Errorf("traceparent %q was adopted despite being malformed", tp)
		}
	}

	// A well-formed traceparent IS continued.
	req, _ := http.NewRequest("GET", ts.URL+"/v2/stats", nil)
	req.Header.Set("traceparent", "00-"+evilTrace+"-"+strings.Repeat("cd", 8)+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-ID"); got != evilTrace {
		t.Errorf("valid traceparent not continued: X-Trace-ID = %q, want %q", got, evilTrace)
	}
}

// TestRecorderBoundedUnderHTTPErrorFlood: a sustained stream of failing
// requests cannot grow the flight recorder past its capacity — old
// errors are evicted, overflow is counted as dropped, and the server
// keeps answering.
func TestRecorderBoundedUnderHTTPErrorFlood(t *testing.T) {
	srv := newServer(engine.New(engine.Options{Workers: 2}), 2, time.Minute)
	srv.recorder = obs.NewRecorder(obs.RecorderOptions{Capacity: 16, SlowN: 2, SampleEvery: 8})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	for i := 0; i < 300; i++ {
		resp, err := http.Post(ts.URL+"/v2/compile", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	st := srv.recorder.Stats()
	if st.Live > 16 {
		t.Fatalf("recorder grew past capacity under flood: %d live > 16", st.Live)
	}
	if st.Recorded < 300 {
		t.Errorf("recorded = %d, want >= 300", st.Recorded)
	}
	if st.Evicted[obs.ClassError] == 0 {
		t.Errorf("error flood should evict old errored traces; stats: %+v", st)
	}
	// The API stays bounded too: the listing returns at most Live entries.
	resp, err := http.Get(ts.URL + "/v2/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) > 16 {
		t.Errorf("listing returned %d traces, capacity is 16", len(list.Traces))
	}
}

// TestBuildInfoAndTraceMetrics: the exposition carries the build-info
// gauge, the uptime gauge, and the ssync_traces_* family.
func TestBuildInfoAndTraceMetrics(t *testing.T) {
	ts, _ := observedServer(t)

	// One request so the recorder has something to count.
	var out compileResponse
	postJSON(t, ts.URL+"/v2/compile", compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, &out)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		"# TYPE ssync_build_info gauge",
		fmt.Sprintf(`ssync_build_info{version="dev",go_version="%s"} 1`, runtime.Version()),
		"# TYPE ssync_uptime_seconds gauge",
		"ssync_uptime_seconds ",
		"ssync_traces_recorded_total 1",
		`ssync_traces_sampled_total{class="slow"}`,
		"ssync_traces_dropped_total",
		"ssync_traces_live 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
