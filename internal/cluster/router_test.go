package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ssync/internal/obs"
)

// fakeReplica is one stub backend: it answers /v2/stats with a
// configurable queue picture and echoes its own name (plus the request
// ID it saw) on every other path.
type fakeReplica struct {
	name     string
	srv      *httptest.Server
	hits     atomic.Int64
	depth    atomic.Int64 // reported interactive-class queue depth
	limit    int64        // reported queue bound
	killConn atomic.Bool  // when set, non-stats requests die mid-connection
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name, limit: 100}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/stats" {
			fmt.Fprintf(w, `{"sched":{"queued":0,"slots":4,"classes":{"interactive":{"depth":%d,"queue_limit":%d}}}}`,
				f.depth.Load(), f.limit)
			return
		}
		if f.killConn.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("fake replica cannot hijack")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // transport error on the router's side, nothing delivered
			return
		}
		f.hits.Add(1)
		w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Served-By", f.name)
		io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, `{"served_by":%q}`, f.name)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// newTestRouter builds a router over the given replicas with fast
// health polling, plus an httptest front end driving it.
func newTestRouter(t *testing.T, opt Options, replicas ...*fakeReplica) (*Router, *httptest.Server) {
	t.Helper()
	for _, f := range replicas {
		opt.Replicas = append(opt.Replicas, f.srv.URL)
	}
	if opt.HealthInterval == 0 {
		opt.HealthInterval = 20 * time.Millisecond
	}
	r, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r)
	t.Cleanup(front.Close)
	return r, front
}

// waitForState polls the router's view until the shard at url reports
// the wanted state.
func waitForState(t *testing.T, r *Router, url, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range r.Stats().Shards {
			if s.URL == url && s.State == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard %s never reached state %q: %+v", url, want, r.Stats())
}

func postCompile(t *testing.T, front, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(front+"/v2/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func servedBy(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.Header.Get("X-Served-By")
}

// TestRouterAffinity: identical bodies land on one replica every time;
// a spread of distinct bodies reaches more than one replica.
func TestRouterAffinity(t *testing.T) {
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	_, front := newTestRouter(t, Options{}, a, b, c)

	first := servedBy(t, postCompile(t, front.URL, `{"circuit":"same"}`))
	for i := 0; i < 10; i++ {
		if got := servedBy(t, postCompile(t, front.URL, `{"circuit":"same"}`)); got != first {
			t.Fatalf("identical request moved from %s to %s", first, got)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		seen[servedBy(t, postCompile(t, front.URL, fmt.Sprintf(`{"circuit":"c%d"}`, i)))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("40 distinct bodies all landed on %v; hashing is degenerate", seen)
	}
}

// TestRouterKeyFn: the injected key function controls placement — two
// textually different bodies with the same key co-locate, and a
// not-ok return falls back to the body hash.
func TestRouterKeyFn(t *testing.T) {
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	keyed := atomic.Int64{}
	opt := Options{KeyFn: func(method, path string, body []byte) (Key, bool) {
		if strings.Contains(string(body), "unkeyable") {
			return Key{}, false
		}
		keyed.Add(1)
		return sha256.Sum256([]byte("constant")), true
	}}
	_, front := newTestRouter(t, opt, a, b, c)

	first := servedBy(t, postCompile(t, front.URL, `{"v":1}`))
	if got := servedBy(t, postCompile(t, front.URL, `{"v":2,"pad":"different text"}`)); got != first {
		t.Fatalf("same-key requests split across %s and %s", first, got)
	}
	if keyed.Load() != 2 {
		t.Fatalf("KeyFn keyed %d requests, want 2", keyed.Load())
	}
	// Fallback path must still be deterministic per body.
	f1 := servedBy(t, postCompile(t, front.URL, `{"unkeyable":1}`))
	f2 := servedBy(t, postCompile(t, front.URL, `{"unkeyable":1}`))
	if f1 != f2 {
		t.Fatalf("body-hash fallback not sticky: %s then %s", f1, f2)
	}
}

// TestRouterSpillOnDown: with the home replica dead, its keys are
// served by the next shard on the ring and counted as "down" spills;
// no client request fails.
func TestRouterSpillOnDown(t *testing.T) {
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	reg := obs.NewRegistry()
	r, front := newTestRouter(t, Options{Registry: reg, DownAfter: 1}, a, b, c)

	body := `{"circuit":"homed"}`
	home := servedBy(t, postCompile(t, front.URL, body))
	var homeRep *fakeReplica
	for _, f := range []*fakeReplica{a, b, c} {
		if f.name == home {
			homeRep = f
		}
	}
	homeRep.srv.CloseClientConnections()
	homeRep.srv.Close()
	waitForState(t, r, homeRep.srv.URL, "down")

	second := servedBy(t, postCompile(t, front.URL, body))
	if second == home {
		t.Fatalf("request still reported home replica %s after its death", home)
	}
	// Sticky failover: the spill target is deterministic too.
	if again := servedBy(t, postCompile(t, front.URL, body)); again != second {
		t.Fatalf("spill target moved from %s to %s", second, again)
	}
	var spills uint64
	for _, s := range r.Stats().Shards {
		spills += s.Spills
	}
	if spills < 2 {
		t.Fatalf("stats recorded %d spills, want >= 2: %+v", spills, r.Stats())
	}
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `ssync_cluster_spills_total{shard=`) ||
		!strings.Contains(rec.Body.String(), `reason="down"`) {
		t.Fatalf("metrics lack down-spill counters:\n%s", rec.Body.String())
	}
}

// TestRouterSpillOnShedding: a replica reporting near-full admission
// queues keeps answering probes but loses new home traffic to its
// second choice.
func TestRouterSpillOnShedding(t *testing.T) {
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	r, front := newTestRouter(t, Options{}, a, b, c)

	body := `{"circuit":"shed-me"}`
	home := servedBy(t, postCompile(t, front.URL, body))
	var homeRep *fakeReplica
	for _, f := range []*fakeReplica{a, b, c} {
		if f.name == home {
			homeRep = f
		}
	}
	homeRep.depth.Store(90) // 90 >= 0.8 * 100
	waitForState(t, r, homeRep.srv.URL, "shedding")

	if got := servedBy(t, postCompile(t, front.URL, body)); got == home {
		t.Fatalf("new traffic still routed to shedding replica %s", home)
	}
	// Recovery: queues drain, home traffic returns.
	homeRep.depth.Store(0)
	waitForState(t, r, homeRep.srv.URL, "up")
	if got := servedBy(t, postCompile(t, front.URL, body)); got != home {
		t.Fatalf("traffic did not return to recovered home %s (got %s)", home, got)
	}
}

// TestRouterRetryOnTransportError: a replica that dies mid-connection
// before the health poller notices costs a retry, not a client error.
func TestRouterRetryOnTransportError(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	// Slow polling: the router must survive on per-request retry alone.
	_, front := newTestRouter(t, Options{HealthInterval: time.Hour}, a, b)

	body := `{"circuit":"retry-victim"}`
	home := servedBy(t, postCompile(t, front.URL, body))
	homeRep, other := a, b
	if home == "b" {
		homeRep, other = b, a
	}
	homeRep.killConn.Store(true)
	if got := servedBy(t, postCompile(t, front.URL, body)); got != other.name {
		t.Fatalf("request after mid-connection death served by %q, want %q", got, other.name)
	}
}

// TestRouterAllShardsDownIs502: when nothing can serve, the client gets
// one clean 502, not a hang. (The correlation headers on it come from
// the HTTP edge in front of the router; cmd/ssyncd tests those.)
func TestRouterAllShardsDownIs502(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, front := newTestRouter(t, Options{HealthInterval: time.Hour}, a)
	a.killConn.Store(true)
	resp := postCompile(t, front.URL, `{"circuit":"x"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
}

// TestRouterRequestID: a caller-supplied ID travels to the replica
// unchanged (the fake replica echoes the header it received).
func TestRouterRequestID(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, front := newTestRouter(t, Options{}, a)

	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v2/compile", strings.NewReader(`{}`))
	req.Header.Set("X-Request-ID", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Values("X-Request-ID"); len(got) != 1 || got[0] != "caller-chose-this" {
		t.Fatalf("replica saw request ID %q, want the caller's", got)
	}
}

// TestRouterStatsEndpoint: /cluster/stats serves the fleet snapshot.
func TestRouterStatsEndpoint(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	_, front := newTestRouter(t, Options{}, a, b)
	servedBy(t, postCompile(t, front.URL, `{}`))

	resp, err := http.Get(front.URL + "/cluster/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats list %d shards, want 2", len(st.Shards))
	}
	var total uint64
	for _, s := range st.Shards {
		total += s.Requests
	}
	if total != 1 {
		t.Fatalf("stats count %d requests, want 1", total)
	}
}

// TestRouterMetricsFamilies: the ssync_cluster_* families appear on the
// router's own /metrics after traffic.
func TestRouterMetricsFamilies(t *testing.T) {
	a := newFakeReplica(t, "a")
	reg := obs.NewRegistry()
	_, front := newTestRouter(t, Options{Registry: reg}, a)
	servedBy(t, postCompile(t, front.URL, `{}`))

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"ssync_cluster_requests_total{shard=",
		"ssync_cluster_shard_state{shard=",
		`ssync_cluster_proxy_duration_seconds_bucket{route="/v2/compile"`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// TestNewRejectsBadConfig: no replicas and non-URL replicas fail fast.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted an empty replica list")
	}
	if _, err := New(Options{Replicas: []string{"not-a-url"}}); err == nil {
		t.Fatal("New accepted a non-http replica")
	}
}

// TestWriteJSONNonFiniteIs500: the router's one JSON writer answers 500
// with an error body for a value JSON cannot encode, and otherwise
// writes exactly the bytes json.Encoder writes, trailing newline
// included.
func TestWriteJSONNonFiniteIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"load": math.Inf(1)})
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || body.Error == "" {
		t.Errorf("+Inf value: status %d, body %q; want 500 with an error", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	httpError(rec, http.StatusNotFound, "no such trace")
	if rec.Code != http.StatusNotFound || rec.Body.String() != "{\"error\":\"no such trace\"}\n" {
		t.Errorf("httpError: status %d, body %q", rec.Code, rec.Body.String())
	}
}
