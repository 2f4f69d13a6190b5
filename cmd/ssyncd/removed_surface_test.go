package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"ssync/internal/auth"
	"ssync/internal/cluster"
	"ssync/internal/engine"
	"ssync/internal/obs"
)

// removedRoutes is the deleted /v1 surface, each with a body its old
// handler would have compiled.
var removedRoutes = []struct{ method, path, body string }{
	{http.MethodPost, "/v1/compile", `{"benchmark":"QFT_8","topology":"G-2x2","capacity":8}`},
	{http.MethodPost, "/v1/batch", `{"jobs":[{"benchmark":"QFT_8","topology":"G-2x2","capacity":8}]}`},
	{http.MethodGet, "/v1/stats", ""},
}

// sendRaw issues one credential-less request and returns its status
// and body.
func sendRaw(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// metricValue reads one sample from a Prometheus text exposition; 0
// when the series is absent.
func metricValue(t *testing.T, h http.Handler, series string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindStringSubmatch(rec.Body.String())
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// topLevelKeys lists a JSON object's keys in wire order.
func topLevelKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

const other404 = `ssync_http_requests_total{route="other",code="404"}`

// TestRemovedV1SurfaceIs404 pins the deletion of the /v1 adapter. Its
// three routes answer 404 on a replica and through an authenticating
// router edge when sent with no credential; none of them compiles, and
// each is counted under route="other" — so dropping /v1 from authRoutes
// opens no unauthenticated compile path. It also pins the top-level key
// order of the /v2 compile and stats bodies, whose types absorbed the
// /v1 response structs.
func TestRemovedV1SurfaceIs404(t *testing.T) {
	srv := newServer(engine.New(engine.Options{Workers: 2}), 2, time.Minute)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	for _, r := range removedRoutes {
		if code, _ := sendRaw(t, r.method, ts.URL+r.path, r.body); code != http.StatusNotFound {
			t.Errorf("replica %s %s: status %d, want 404", r.method, r.path, code)
		}
	}
	if c := srv.eng.Stats().Compiled; c != 0 {
		t.Errorf("replica compiled %d requests for the removed routes", c)
	}
	if got := metricValue(t, srv.reg, other404); got != float64(len(removedRoutes)) {
		t.Errorf("replica %s = %v, want %d", other404, got, len(removedRoutes))
	}

	t.Run("router edge", func(t *testing.T) {
		const secret = "fleet-secret"
		reps := make([]*server, 2)
		urls := make([]string, 2)
		for i := range reps {
			reps[i] = newServer(engine.New(engine.Options{Workers: 2}), 2, time.Minute)
			reps[i].auth = testAuthLayer(t, reps[i].reg, "", false, secret)
			hts := httptest.NewServer(reps[i].routes())
			t.Cleanup(hts.Close)
			urls[i] = hts.URL
		}
		reg := obs.NewRegistry()
		router, err := cluster.New(cluster.Options{
			Replicas: urls, KeyFn: routerRequestKey, Registry: reg,
			HealthInterval: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(router.Close)
		keys := writeKeyFile(t, auth.HashKey("key-a")+" alpha")
		front := httptest.NewServer(testAuthLayer(t, reg, keys, false, secret).edgeGuard(router))
		t.Cleanup(front.Close)

		// The edge does guard: a credential-less /v2 compile is a 401.
		if code, _ := sendRaw(t, http.MethodPost, front.URL+"/v2/compile", removedRoutes[0].body); code != http.StatusUnauthorized {
			t.Fatalf("edge /v2/compile without credential: status %d, want 401", code)
		}
		for _, r := range removedRoutes {
			if code, _ := sendRaw(t, r.method, front.URL+r.path, r.body); code != http.StatusNotFound {
				t.Errorf("edge %s %s: status %d, want 404", r.method, r.path, code)
			}
		}
		var served float64
		for i, rep := range reps {
			if c := rep.eng.Stats().Compiled; c != 0 {
				t.Errorf("replica %d compiled %d requests for the removed routes", i, c)
			}
			served += metricValue(t, rep.reg, other404)
		}
		if served != float64(len(removedRoutes)) {
			t.Errorf("replicas counted %v requests as %s, want %d", served, other404, len(removedRoutes))
		}
		proxied := `ssync_cluster_proxy_duration_seconds_count{route="other"}`
		if got := metricValue(t, reg, proxied); got != float64(len(removedRoutes)) {
			t.Errorf("router %s = %v, want %d", proxied, got, len(removedRoutes))
		}
	})

	t.Run("v2 wire keys", func(t *testing.T) {
		keysOf := func(method, path, body string) []string {
			t.Helper()
			code, raw := sendRaw(t, method, ts.URL+path, body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", method, path, code, raw)
			}
			return topLevelKeys(t, raw)
		}
		compile := `{"label":"a","benchmark":"BV_12","topology":"S-4","capacity":8}`
		head := []string{"label", "compiler", "topology", "qubits", "two_qubit_gates", "shuttles", "swaps",
			"success_rate", "exec_time_us", "compile_ms", "cache_hit", "key", "trace_id", "priority"}
		want := map[string][]string{
			"miss": append(append([]string(nil), head...), "pipeline", "passes"),
			"hit":  append(append([]string(nil), head...), "cache_tier", "pipeline", "passes"),
			"stats": {"uptime_seconds", "requests", "jobs_compiled", "job_errors", "cache_hits", "cache_misses",
				"cache_evictions", "cache_entries", "cache_capacity", "cache_hit_rate", "workers",
				"coalesced", "compilers", "store", "sched", "passes", "sim"},
		}
		got := map[string][]string{
			"miss":  keysOf(http.MethodPost, "/v2/compile", compile),
			"hit":   keysOf(http.MethodPost, "/v2/compile", compile),
			"stats": keysOf(http.MethodGet, "/v2/stats", ""),
		}
		for name := range want {
			if !reflect.DeepEqual(got[name], want[name]) {
				t.Errorf("%s keys:\n got  %v\n want %v", name, got[name], want[name])
			}
		}
	})
}
