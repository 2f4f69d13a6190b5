package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ssync/internal/engine"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := newServer(engine.New(engine.Options{Workers: 4}), 4, time.Minute)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func TestCompileEndpoint(t *testing.T) {
	ts := testServer(t)
	var got compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Qubits != 12 || got.Compiler != "ssync" || got.Topology != "G-2x2" {
		t.Errorf("unexpected response: %+v", got)
	}
	if got.SuccessRate <= 0 || got.SuccessRate > 1 {
		t.Errorf("success rate %v out of range", got.SuccessRate)
	}
	if got.Key == "" {
		t.Error("missing content-address key")
	}
	if got.CacheHit {
		t.Error("first request reported a cache hit")
	}

	// The identical request must come back from the cache.
	var again compileResponse
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8}, &again)
	if !again.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if again.Shuttles != got.Shuttles || again.Swaps != got.Swaps {
		t.Error("cached response differs from the original")
	}
}

func TestCompileInlineQASM(t *testing.T) {
	ts := testServer(t)
	src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
	var got compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{QASM: src, Topology: "L-2", Capacity: 4, Compiler: "murali"}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Qubits != 3 || got.Compiler != "murali" {
		t.Errorf("unexpected response: %+v", got)
	}
}

func TestCompileRejectsBadRequests(t *testing.T) {
	ts := testServer(t)
	// Hostile topology parameters must come back as 400s, not reach the
	// panicking device constructors (negative capacity / dimensions).
	hostile := []compileRequest{
		{Benchmark: "QFT_12", Topology: "L-6", Capacity: -1},
		{Benchmark: "QFT_12", Topology: "G--1x2"},
		{Benchmark: "QFT_12", Topology: "S-0", Capacity: 8},
		{Benchmark: "QFT_-5", Topology: "L-6"},                      // panicking generator size
		{Benchmark: "QFT_30000", Topology: "L-6"},                   // DoS-scale generator size
		{Benchmark: "QFT_30000x", Topology: "L-6"},                  // same, with Atoi-defeating suffix
		{Benchmark: "BV_12", Topology: "L-50000"},                   // DoS-scale trap count
		{Benchmark: "BV_12", Topology: "G-99999x99999"},             // dimension-product overflow
		{Benchmark: "BV_12", Topology: "L-6", Capacity: 2000000000}, // DoS-scale capacity
	}
	for i, req := range hostile {
		resp := postJSON(t, ts.URL+"/v2/compile", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("hostile case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/v2/stats", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v2/stats: status %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := testServer(t)
	req := batchRequest{Requests: []compileRequest{
		{Label: "a", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8},
		{Label: "b", Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Compiler: "dai"},
		{Label: "broken", Topology: "G-2x2"},
		{Label: "c", Benchmark: "Adder_4", Topology: "S-4", Capacity: 8, Mapping: "sta"},
	}}
	var got batchResponse
	resp := postJSON(t, ts.URL+"/v2/batch", req, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) != 4 || got.Errors != 1 {
		t.Fatalf("results=%d errors=%d, want 4/1", len(got.Results), got.Errors)
	}
	for i, label := range []string{"a", "b", "broken", "c"} {
		if got.Results[i].Label != label {
			t.Errorf("result %d has label %q, want %q (ordering broken)", i, got.Results[i].Label, label)
		}
	}
	if got.Results[2].Error == "" {
		t.Error("malformed entry did not report an error")
	}
	for _, i := range []int{0, 1, 3} {
		if got.Results[i].Error != "" {
			t.Errorf("entry %q failed: %s", got.Results[i].Label, got.Results[i].Error)
		}
	}
}

func TestTimeoutStatusIs504(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_64", Topology: "G-3x3", TimeoutMs: 1}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timed-out compile: status %d, want 504", resp.StatusCode)
	}
}

func TestBatchLimits(t *testing.T) {
	ts := testServer(t)
	// Entry-count limit.
	big := batchRequest{Requests: make([]compileRequest, maxBatchJobs+1)}
	for i := range big.Requests {
		big.Requests[i] = compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}
	}
	if resp := postJSON(t, ts.URL+"/v2/batch", big, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	// Aggregate-size budget: each entry is individually legal.
	var heavy batchRequest
	for i := 0; i < maxBatchSizeBudget/maxBenchmarkSize+1; i++ {
		heavy.Requests = append(heavy.Requests, compileRequest{
			Benchmark: fmt.Sprintf("QFT_%d", maxBenchmarkSize), Topology: "L-6",
		})
	}
	if resp := postJSON(t, ts.URL+"/v2/batch", heavy, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-budget batch: status %d, want 400", resp.StatusCode)
	}
}

func TestPortfolioStatusCodes(t *testing.T) {
	ts := testServer(t)
	// Well-formed but uncompilable (circuit larger than the device) must
	// be 422, matching the non-portfolio path.
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_64", Topology: "G-2x2", Capacity: 4, Portfolio: true}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible portfolio: status %d, want 422", resp.StatusCode)
	}
	// A mapping override contradicts racing all strategies: reject loudly
	// rather than silently ignoring it.
	resp = postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Portfolio: true, Mapping: "sta"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("portfolio+mapping: status %d, want 400", resp.StatusCode)
	}
}

func TestPortfolioCompile(t *testing.T) {
	ts := testServer(t)
	var got compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Portfolio: true}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Winner == "" {
		t.Error("portfolio response has no winner")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, nil)
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, nil)

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCompiled != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 compiled and 1 cache hit", st)
	}
	if st.Requests < 3 {
		t.Errorf("requests = %d, want >= 3", st.Requests)
	}
	if st.Workers != 4 {
		t.Errorf("workers = %d, want 4", st.Workers)
	}
}

func TestCompileV2Endpoint(t *testing.T) {
	ts := testServer(t)
	var got compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Qubits != 12 || got.Compiler != "ssync" || got.Topology != "G-2x2" {
		t.Errorf("unexpected response: %+v", got)
	}
	if got.Key == "" {
		t.Error("missing content-address key")
	}
}

func TestCompileV2AnnealedCompiler(t *testing.T) {
	ts := testServer(t)
	seed := int64(7)
	var got compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			Compiler: "ssync-annealed", AnnealSeed: &seed}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Compiler != "ssync-annealed" {
		t.Errorf("compiler = %q, want ssync-annealed", got.Compiler)
	}

	// A different seed is a different request: distinct cache key.
	other := int64(8)
	var reseeded compileResponse
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			Compiler: "ssync-annealed", AnnealSeed: &other}, &reseeded)
	if reseeded.Key == got.Key {
		t.Error("anneal_seed does not reach the cache key")
	}
	if reseeded.CacheHit {
		t.Error("differently-seeded request reported a cache hit")
	}

	// The same seed is the same request: cache hit.
	var again compileResponse
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			Compiler: "ssync-annealed", AnnealSeed: &seed}, &again)
	if !again.CacheHit {
		t.Error("identically-seeded request missed the cache")
	}
}

// invalidCompileRequests are /v2/compile bodies a replica refuses with
// 400; FuzzCompileBody seeds from them too.
var invalidCompileRequests = func() []compileRequest {
	seed := int64(1)
	return []compileRequest{
		{Topology: "G-2x2"}, // no circuit
		{Benchmark: "QFT_12", QASM: "x", Topology: "G-2x2"},                                       // both
		{Benchmark: "QFT_12"},                                                                     // no topology
		{Benchmark: "QFT_12", Topology: "Z-9"},                                                    // unknown device
		{Benchmark: "QFT_12", Topology: "G-2x2", Mapping: "bogus"},                                // unknown mapping
		{Benchmark: "QFT_12", Topology: "G-2x2", Compiler: "qiskit"},                              // unknown (cap default)
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "qiskit"},                 // unknown
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "murali", Mapping: "sta"}, // mapping on baseline
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, AnnealSeed: &seed},                  // seed on plain ssync
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Portfolio: true, AnnealSeed: &seed}, // seed on portfolio
	}
}()

func TestCompileV2Validation(t *testing.T) {
	ts := testServer(t)
	for i, req := range invalidCompileRequests {
		resp := postJSON(t, ts.URL+"/v2/compile", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// The unknown-compiler error names the known set.
	raw := struct {
		Error string `json:"error"`
	}{}
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "qiskit"}, &raw)
	if raw.Error == "" {
		t.Fatal("unknown compiler produced no error body")
	}
}

func TestBatchV2Endpoint(t *testing.T) {
	ts := testServer(t)
	req := batchRequest{Requests: []compileRequest{
		{Label: "a", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8},
		{Label: "b", Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Compiler: "ssync-annealed"},
		{Label: "broken", Topology: "G-2x2"},
	}}
	var got batchResponse
	resp := postJSON(t, ts.URL+"/v2/batch", req, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) != 3 || got.Errors != 1 {
		t.Fatalf("results=%d errors=%d, want 3/1", len(got.Results), got.Errors)
	}
	if got.Results[1].Compiler != "ssync-annealed" {
		t.Errorf("entry b compiled with %q", got.Results[1].Compiler)
	}
	if got.Results[2].Error == "" {
		t.Error("malformed entry did not report an error")
	}
}

func TestCompilersV2Endpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v2/compilers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got compilersResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range engine.Compilers() {
		want[name] = true
	}
	for _, name := range []string{"murali", "dai", "ssync", "ssync-annealed"} {
		if !want[name] {
			t.Fatalf("engine lacks compiler %q", name)
		}
	}
	if len(got.Compilers) != len(engine.Compilers()) {
		t.Errorf("endpoint lists %d compilers, engine has %d", len(got.Compilers), len(engine.Compilers()))
	}
}

func TestStatsV2Endpoint(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, nil)

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCompiled != 1 {
		t.Errorf("jobs_compiled = %d, want 1", st.JobsCompiled)
	}
	if len(st.Compilers) == 0 {
		t.Error("v2 stats carries no compiler listing")
	}
}
