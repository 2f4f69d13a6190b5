package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/engine"
	"ssync/internal/obs"
)

// acceptRequestIDCases is TestAcceptRequestID's table; FuzzEdgeHeaders
// seeds its corpus from it.
var acceptRequestIDCases = map[string]bool{
	"abc":                   true,
	"a.b_c-9":               true,
	"":                      false,
	"has space":             false,
	"bad\nnewline":          false,
	"quote\"":               false,
	strings.Repeat("x", 64): true,
	strings.Repeat("x", 65): false,
}

// traceparentSeeds mirror the internal/obs TestParseTraceparent table:
// one valid header and the malformed shapes it must reject.
func traceparentSeeds() []string {
	traceID := strings.Repeat("ab", 16)
	spanID := strings.Repeat("cd", 8)
	good := "00-" + traceID + "-" + spanID + "-01"
	return []string{
		good,
		"",
		"garbage",
		"00-" + traceID + "-" + spanID,
		"01-" + traceID + "-" + spanID + "-01",
		"00-" + strings.ToUpper(traceID) + "-" + spanID + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + spanID + "-01",
		"00-" + traceID + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + traceID + "x-" + spanID + "-0",
		good + "extra",
		"00-" + traceID[:31] + "g-" + spanID + "-01",
	}
}

// FuzzEdgeHeaders serves one request through the edge with arbitrary
// traceparent and X-Request-ID values. The edge must not panic, must
// answer exactly one well-formed X-Trace-ID — the inbound trace's ID
// whenever the traceparent parses — and exactly one X-Request-ID: the
// inbound value when acceptRequestID accepts it, the trace ID otherwise.
func FuzzEdgeHeaders(f *testing.F) {
	for _, tp := range traceparentSeeds() {
		for id := range acceptRequestIDCases {
			f.Add(tp, id)
		}
	}
	h := edge{log: slog.New(slog.DiscardHandler)}.handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	f.Fuzz(func(t *testing.T, traceparent, requestID string) {
		req := httptest.NewRequest(http.MethodGet, "/v2/stats", nil)
		req.Header.Set("traceparent", traceparent)
		req.Header.Set("X-Request-ID", requestID)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		tids := rec.Header().Values("X-Trace-ID")
		if len(tids) != 1 || !obs.IsTraceID(tids[0]) {
			t.Fatalf("X-Trace-ID = %q, want exactly one trace ID", tids)
		}
		if want, _, ok := obs.ParseTraceparent(traceparent); ok && tids[0] != want {
			t.Fatalf("X-Trace-ID = %q, want the inbound trace %q", tids[0], want)
		}
		rids := rec.Header().Values("X-Request-ID")
		want := tids[0]
		if acceptRequestID(requestID) {
			want = requestID
		}
		if len(rids) != 1 || rids[0] != want {
			t.Fatalf("X-Request-ID = %q for inbound %q, want exactly %q", rids, requestID, want)
		}
	})
}

// TestRoutedCorrelationHeadersOnce drives the edge and the cluster
// router over one replica, as router mode wires them: a routed response
// carries exactly one X-Trace-ID and one X-Request-ID — the trace ID, or
// the caller's acceptable ID — on a 200 and on the all-shards-down 502.
func TestRoutedCorrelationHeadersOnce(t *testing.T) {
	rep := newClusterReplica(t, t.TempDir())
	router, err := cluster.New(cluster.Options{
		Replicas:       []string{rep.hts.URL},
		KeyFn:          routerRequestKey,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	front := httptest.NewServer(edge{log: slog.New(slog.DiscardHandler)}.handler(router))
	t.Cleanup(front.Close)

	check := func(name string, status int, inbound string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, front.URL+"/v2/compile",
			strings.NewReader(`{"benchmark":"BV_8","topology":"S-4","capacity":8}`))
		if inbound != "" {
			req.Header.Set("X-Request-ID", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, status)
		}
		tids, rids := resp.Header.Values("X-Trace-ID"), resp.Header.Values("X-Request-ID")
		if len(tids) != 1 || !obs.IsTraceID(tids[0]) {
			t.Errorf("%s: X-Trace-ID = %q, want exactly one trace ID", name, tids)
			return
		}
		want := tids[0]
		if inbound != "" {
			want = inbound
		}
		if len(rids) != 1 || rids[0] != want {
			t.Errorf("%s: X-Request-ID = %q, want exactly %q", name, rids, want)
		}
	}
	check("routed, minted ID", http.StatusOK, "")
	check("routed, inbound ID", http.StatusOK, "caller-chose-this")
	rep.hts.Close()
	check("all shards down, minted ID", http.StatusBadGateway, "")
	check("all shards down, inbound ID", http.StatusBadGateway, "caller-chose-this")
}

// TestSpanHistogramsMatchStats pins the span-derived event histograms
// to the layers' own counters. One cold batch on a replica with a disk
// tier runs far more passes and blob operations than one trace keeps
// (the test asserts the trace dropped spans), yet every executed pass
// and every disk operation is counted exactly once.
func TestSpanHistogramsMatchStats(t *testing.T) {
	eng, err := engine.Open(engine.Options{Workers: 2, StageCacheSize: 64, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, 2, time.Minute)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	// 9 sizes × 5 topologies × 3 compilers = 135 distinct cold entries.
	var batch batchRequest
	for n := 4; n <= 12; n++ {
		for _, topo := range []string{"S-4", "G-2x2", "L-4", "L-6", "G-2x3"} {
			for _, comp := range []string{"ssync", "murali", "dai"} {
				batch.Requests = append(batch.Requests, compileRequest{
					Benchmark: fmt.Sprintf("BV_%d", n), Topology: topo, Capacity: 8, Compiler: comp,
				})
			}
		}
	}
	var out batchResponse
	postJSON(t, ts.URL+"/v2/batch", batch, &out)
	if out.Errors != 0 || len(out.Results) != len(batch.Requests) {
		t.Fatalf("batch: %d errors over %d results", out.Errors, len(out.Results))
	}
	doc := fetchTraceDoc(t, ts.URL, out.TraceID, func(d obs.TraceDoc) bool { return d.SpansDropped > 0 })
	if doc.SpansDropped == 0 {
		t.Fatalf("the batch's trace kept all %d spans; the test needs one that drops some", len(doc.Spans))
	}

	st := eng.Stats()
	if len(st.Passes) == 0 {
		t.Fatal("no pass ran")
	}
	for name, ps := range st.Passes {
		series := fmt.Sprintf(`ssync_pass_duration_seconds_count{pass=%q}`, name)
		if got := metricValue(t, srv.reg, series); got != float64(ps.Runs) {
			t.Errorf("%s = %v, want Stats().Passes[%q].Runs = %d", series, got, name, ps.Runs)
		}
	}
	disk := st.Results.Disk
	diskOps := func(op string) float64 {
		var n float64
		for _, outcome := range []string{"ok", "miss", "error"} {
			n += metricValue(t, srv.reg, fmt.Sprintf(`ssync_store_disk_op_seconds_count{op=%q,outcome=%q}`, op, outcome))
		}
		return n
	}
	if got, want := diskOps("get"), float64(disk.Hits+disk.Misses); got != want || want == 0 {
		t.Errorf("disk get ops in the histogram = %v, disk tier counted %v", got, want)
	}
	if got, want := diskOps("put"), float64(disk.Puts+disk.Rejected); got != want || want == 0 {
		t.Errorf("disk put ops in the histogram = %v, disk tier counted %v", got, want)
	}
}
