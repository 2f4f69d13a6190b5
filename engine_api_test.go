package ssync

import (
	"context"
	"testing"
)

// Tests of the public concurrent-compilation surface: NewEngine, Do,
// CompilePool and CompilePortfolio.

func batchRequests(t testing.TB) []CompileRequest {
	t.Helper()
	var reqs []CompileRequest
	for _, bench := range []string{"QFT_12", "BV_12"} {
		c, err := Benchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, comp := range []string{MuraliCompilerName, DaiCompilerName, SSyncCompilerName} {
			reqs = append(reqs, CompileRequest{
				Label: bench + "/" + comp, Circuit: c,
				Topo: GridDevice(2, 2, 8), Compiler: comp,
			})
		}
	}
	return reqs
}

// runOnDefault fans reqs across a pool over the process-wide engine,
// the way a caller batches on the package-level API.
func runOnDefault(reqs []CompileRequest) []CompileResponse {
	pool := CompilePool{Engine: DefaultEngine()}
	return pool.RunRequests(context.Background(), reqs)
}

func TestPublicCompileBatch(t *testing.T) {
	reqs := batchRequests(t)
	results := runOnDefault(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", reqs[i].Label, r.Err)
		}
		if r.Label != reqs[i].Label {
			t.Errorf("result %d carries label %q, want %q", i, r.Label, reqs[i].Label)
		}
		if r.Result.Schedule == nil {
			t.Errorf("%s: nil schedule", reqs[i].Label)
		}
	}
	// The shared default engine serves a repeated batch from its cache.
	for i, r := range runOnDefault(reqs) {
		if r.Err != nil || !r.CacheHit {
			t.Errorf("%s: repeat err=%v hit=%v, want cache hit", reqs[i].Label, r.Err, r.CacheHit)
		}
	}
}

func TestPublicCompilePortfolio(t *testing.T) {
	c := QFT(12)
	topo := GridDevice(2, 2, 8)
	out, err := CompilePortfolio(context.Background(), c, topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner.Err != nil || out.Winner.Result == nil {
		t.Fatalf("portfolio winner unusable: %+v", out.Winner)
	}
	if len(out.Results) != len(DefaultPortfolio()) {
		t.Errorf("%d results for %d default variants", len(out.Results), len(DefaultPortfolio()))
	}
	win := out.Metrics[out.WinnerIndex]
	for i, m := range out.Metrics {
		if out.Results[i].Err == nil && m.SuccessRate > win.SuccessRate {
			t.Errorf("variant %d beats the declared winner", i)
		}
	}
}

func TestPublicDoAndCompileRequests(t *testing.T) {
	c, err := Benchmark("QFT_12")
	if err != nil {
		t.Fatal(err)
	}
	topo := GridDevice(2, 2, 8)
	var reqs []CompileRequest
	for _, name := range []string{MuraliCompilerName, DaiCompilerName, SSyncCompilerName, SSyncAnnealedCompilerName} {
		reqs = append(reqs, CompileRequest{Label: name, Circuit: c, Topo: topo, Compiler: name})
	}
	for i, r := range runOnDefault(reqs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", reqs[i].Label, r.Err)
		}
		if r.Compiler != reqs[i].Compiler {
			t.Errorf("response compiler %q for request %q", r.Compiler, reqs[i].Compiler)
		}
		if r.Result == nil || r.Result.Schedule == nil {
			t.Errorf("%s: no schedule", reqs[i].Label)
		}
	}
	// The package-level Do shares DefaultEngine with the pool.
	again := Do(context.Background(), reqs[0])
	if again.Err != nil || !again.CacheHit {
		t.Errorf("repeat Do: err=%v hit=%v, want cache hit", again.Err, again.CacheHit)
	}
}

func TestPublicNewEngineStats(t *testing.T) {
	eng := NewEngine(EngineOptions{CacheSize: 4})
	pool := CompilePool{Engine: eng, Workers: 2}
	reqs := batchRequests(t)
	for _, r := range pool.RunRequests(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := eng.Stats()
	if st.Compiled != uint64(len(reqs)) {
		t.Errorf("compiled = %d, want %d", st.Compiled, len(reqs))
	}
	if st.Cache.Entries > 4 {
		t.Errorf("cache holds %d entries, bound is 4", st.Cache.Entries)
	}
}
