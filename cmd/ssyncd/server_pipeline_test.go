package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"ssync/internal/pass"
)

// ssyncPipelineV2 is the canned ssync pipeline written out explicitly.
func ssyncPipelineV2() []passSpec {
	return []passSpec{
		{Name: pass.DecomposeBasis}, {Name: pass.PlaceGreedy}, {Name: pass.RouteSSync},
	}
}

func TestCompileV2ExplicitPipeline(t *testing.T) {
	ts := testServer(t)

	// Compile by canned name first...
	var named compileResponse
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "ssync"}, &named)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(named.Pipeline) != 3 || named.Pipeline[0] != pass.DecomposeBasis {
		t.Errorf("canned compile reports pipeline %v", named.Pipeline)
	}
	if len(named.Passes) != 3 {
		t.Fatalf("canned compile reports %d pass timings, want 3", len(named.Passes))
	}
	for _, pt := range named.Passes {
		if pt.Pass == "" || pt.Ms < 0 {
			t.Errorf("malformed pass timing %+v", pt)
		}
	}

	// ...then the identical explicit pipeline: same key, served from cache.
	var explicit compileResponse
	resp = postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			Pipeline: ssyncPipelineV2()}, &explicit)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit pipeline status %d", resp.StatusCode)
	}
	if explicit.Key != named.Key {
		t.Errorf("explicit pipeline key %s differs from canned key %s", explicit.Key, named.Key)
	}
	if !explicit.CacheHit {
		t.Error("explicit pipeline missed the cache entry its canned twin created")
	}
	if explicit.Shuttles != named.Shuttles || explicit.Swaps != named.Swaps {
		t.Errorf("explicit pipeline counts (%d,%d) differ from canned (%d,%d)",
			explicit.Shuttles, explicit.Swaps, named.Shuttles, named.Swaps)
	}

	// A genuinely different pipeline — verified, annealed placement — is a
	// different request that still compiles.
	seed := int64(7)
	var custom compileResponse
	resp = postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			AnnealSeed: &seed,
			Pipeline: []passSpec{
				{Name: pass.DecomposeBasis},
				{Name: pass.PlaceAnnealed},
				{Name: pass.RouteSSync},
				{Name: pass.VerifyStatevec},
			}}, &custom)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom pipeline status %d", resp.StatusCode)
	}
	if custom.Key == named.Key {
		t.Error("distinct pipeline shares the canned key")
	}
	if len(custom.Passes) != 4 {
		t.Errorf("custom pipeline reports %d pass timings, want 4", len(custom.Passes))
	}
}

func TestCompileV2PipelineValidation(t *testing.T) {
	ts := testServer(t)
	cases := []compileRequest{
		// compiler and pipeline are mutually exclusive
		{Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Compiler: "ssync", Pipeline: ssyncPipelineV2()},
		// unknown pass
		{Benchmark: "BV_12", Topology: "S-4", Capacity: 8,
			Pipeline: []passSpec{{Name: "llvm-mem2reg"}}},
		// malformed pass options
		{Benchmark: "BV_12", Topology: "S-4", Capacity: 8,
			Pipeline: []passSpec{
				{Name: pass.DecomposeBasis},
				{Name: pass.PlaceGreedy, Options: json.RawMessage(`{"mapping":"qiskit"}`)},
				{Name: pass.RouteSSync}}},
		// portfolio is canned-variants only
		{Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Portfolio: true, Pipeline: ssyncPipelineV2()},
		// inert overrides: no stage of this pipeline reads the scheduler
		// or annealer config, so the knobs must be rejected, not ignored
		{Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Mapping: "sta",
			Pipeline: []passSpec{{Name: pass.DecomposeBasis}, {Name: pass.RouteMurali}}},
		{Benchmark: "BV_12", Topology: "S-4", Capacity: 8, AnnealSeed: new(int64),
			Pipeline: ssyncPipelineV2()},
	}
	for i, req := range cases {
		resp := postJSON(t, ts.URL+"/v2/compile", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// A pipeline that builds but cannot produce a result is a compile-time
	// failure (422), not a validation error.
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8,
			Pipeline: []passSpec{{Name: pass.DecomposeBasis}}}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("result-less pipeline: status %d, want 422", resp.StatusCode)
	}
}

func TestBatchV2AcceptsPipelines(t *testing.T) {
	ts := testServer(t)
	req := batchRequest{Requests: []compileRequest{
		{Label: "named", Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Compiler: "murali"},
		{Label: "staged", Benchmark: "BV_12", Topology: "S-4", Capacity: 8,
			Pipeline: []passSpec{{Name: pass.DecomposeBasis}, {Name: pass.RouteMurali}}},
	}}
	var got batchResponse
	resp := postJSON(t, ts.URL+"/v2/batch", req, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Errors != 0 || len(got.Results) != 2 {
		t.Fatalf("results=%d errors=%d, want 2/0", len(got.Results), got.Errors)
	}
	// The canned name and its explicit pipeline are the same request.
	if got.Results[0].Key != got.Results[1].Key {
		t.Errorf("canned and explicit murali keys differ: %s vs %s",
			got.Results[0].Key, got.Results[1].Key)
	}
}

func TestPassesV2Endpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v2/passes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got passesResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, name := range got.Passes {
		listed[name] = true
	}
	for _, want := range []string{pass.DecomposeBasis, pass.PlaceGreedy, pass.PlaceAnnealed,
		pass.RouteSSync, pass.RouteMurali, pass.RouteDai, pass.VerifyStatevec} {
		if !listed[want] {
			t.Errorf("built-in pass %q missing from /v2/passes: %v", want, got.Passes)
		}
	}
	for _, name := range []string{"murali", "dai", "ssync", "ssync-annealed"} {
		if len(got.Pipelines[name]) == 0 {
			t.Errorf("canned pipeline %q missing from /v2/passes", name)
		}
	}
}

func TestStatsV2ReportsPassTimings(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v2/compile",
		compileRequest{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, nil)
	// A cache hit must not re-count pass runs.
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
	for _, name := range []string{pass.DecomposeBasis, pass.PlaceGreedy, pass.RouteSSync} {
		ps, ok := st.Passes[name]
		if !ok {
			t.Errorf("pass %q missing from /v2/stats passes: %v", name, st.Passes)
			continue
		}
		if ps.Runs != 1 {
			t.Errorf("pass %q runs = %d, want 1 (cache hits must not re-count)", name, ps.Runs)
		}
		if ps.TotalMs < 0 {
			t.Errorf("pass %q total_ms negative", name)
		}
	}
}
