package ssync

import (
	"context"
	"encoding/json"
	"testing"
)

// Tests of the public pass-pipeline surface: RegisterPass, Passes,
// BuiltinPipeline and CompileRequest.Pipeline.

func TestPublicPipelineMatchesCannedCompiler(t *testing.T) {
	c := QFT(12)
	topo := GridDevice(2, 2, 8)
	ctx := context.Background()

	named := Do(ctx, CompileRequest{Circuit: c, Topo: topo, Compiler: SSyncCompilerName})
	if named.Err != nil {
		t.Fatal(named.Err)
	}
	canned, ok := BuiltinPipeline(SSyncCompilerName)
	if !ok || len(canned) == 0 {
		t.Fatalf("BuiltinPipeline(%q) = %v, %v", SSyncCompilerName, canned, ok)
	}
	explicit := Do(ctx, CompileRequest{Circuit: c, Topo: topo, Pipeline: canned})
	if explicit.Err != nil {
		t.Fatal(explicit.Err)
	}
	if named.Key != explicit.Key {
		t.Errorf("canned key %s != explicit pipeline key %s", named.Key, explicit.Key)
	}
	if !explicit.CacheHit && !named.CacheHit {
		t.Error("equivalent requests did not share the default engine's cache")
	}
	if len(named.Result.PassTimings) == 0 {
		t.Error("canned compile reports no pass timings")
	}
}

func TestPublicRegisterPass(t *testing.T) {
	if err := RegisterPass("", nil); err == nil {
		t.Error("empty pass registration accepted")
	}
	if err := RegisterPass(RouteSSyncPass,
		func(json.RawMessage) (Pass, error) { return nil, nil }); err == nil {
		t.Error("built-in pass name re-registered")
	}
	found := map[string]bool{}
	for _, name := range Passes() {
		found[name] = true
	}
	for _, want := range []string{DecomposeBasisPass, PlaceGreedyPass, PlaceAnnealedPass,
		RouteSSyncPass, RouteMuraliPass, RouteDaiPass, VerifyStatevecPass} {
		if !found[want] {
			t.Errorf("built-in pass %q missing from Passes()", want)
		}
	}
}
