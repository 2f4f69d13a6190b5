package engine

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ssync/internal/core"
	"ssync/internal/mapping"
	"ssync/internal/pass"
	"ssync/internal/sched"
)

// pipelineRequest is testRequest with an explicit pipeline instead of a
// compiler name.
func pipelineRequest(t testing.TB, bench, topoName string, capacity int, specs ...pass.Spec) Request {
	t.Helper()
	req := testRequest(t, bench, topoName, capacity, "")
	req.Compiler = ""
	req.Pipeline = specs
	return req
}

func ssyncSpecs() []pass.Spec {
	return []pass.Spec{{Name: pass.DecomposeBasis}, {Name: pass.PlaceGreedy}, {Name: pass.RouteSSync}}
}

// TestPipelineKeyDeterminism is the cache-key-v3 contract: identical
// pipeline specs (option JSON included) key identically, and any change
// of pass name or option value produces a distinct key.
func TestPipelineKeyDeterminism(t *testing.T) {
	base := pipelineRequest(t, "QFT_12", "G-2x2", 8, ssyncSpecs()...)
	k1, err := RequestKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RequestKey(pipelineRequest(t, "QFT_12", "G-2x2", 8, ssyncSpecs()...))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("identical pipelines keyed differently: %s vs %s", k1, k2)
	}

	// Option JSON that decodes identically keys identically even when the
	// raw bytes differ (the key hashes the canonical signature).
	wsA := pipelineRequest(t, "QFT_12", "G-2x2", 8,
		pass.Spec{Name: pass.DecomposeBasis},
		pass.Spec{Name: pass.PlaceGreedy, Options: json.RawMessage(`{"mapping":"sta"}`)},
		pass.Spec{Name: pass.RouteSSync})
	wsB := pipelineRequest(t, "QFT_12", "G-2x2", 8,
		pass.Spec{Name: pass.DecomposeBasis},
		pass.Spec{Name: pass.PlaceGreedy, Options: json.RawMessage(`  { "mapping" : "sta" }`)},
		pass.Spec{Name: pass.RouteSSync})
	ka, err := RequestKey(wsA)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := RequestKey(wsB)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("whitespace-only option difference changed the key")
	}

	// Every name or option perturbation is a distinct request.
	variants := [][]pass.Spec{
		{{Name: pass.DecomposeBasis}, {Name: pass.PlaceAnnealed}, {Name: pass.RouteSSync}},
		{{Name: pass.PlaceGreedy}, {Name: pass.RouteSSync}},
		{{Name: pass.DecomposeBasis}, {Name: pass.PlaceGreedy},
			{Name: pass.RouteSSync, Options: json.RawMessage(`{"commutation":true}`)}},
		{{Name: pass.DecomposeBasis},
			{Name: pass.PlaceGreedy, Options: json.RawMessage(`{"mapping":"even-divided"}`)},
			{Name: pass.RouteSSync}},
		{{Name: pass.DecomposeBasis}, {Name: pass.PlaceGreedy}, {Name: pass.RouteSSync},
			{Name: pass.VerifyStatevec}},
		{{Name: pass.DecomposeBasis}, {Name: pass.PlaceGreedy}, {Name: pass.RouteSSync},
			{Name: pass.VerifyStatevec, Options: json.RawMessage(`{"seed":9}`)}},
	}
	seen := map[Key]int{k1: -1}
	for i, specs := range variants {
		k, err := RequestKey(pipelineRequest(t, "QFT_12", "G-2x2", 8, specs...))
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("pipeline variants %d and %d collide on key %s", prev, i, k)
		}
		seen[k] = i
	}
}

// TestIrrelevantConfigDoesNotFragmentPipelineKeys pins the v2 property
// re-established for pipelines: a Config (or Anneal) the pipeline's
// stages never read must not change the key, while pipelines that do
// read it key it.
func TestIrrelevantConfigDoesNotFragmentPipelineKeys(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.LookaheadGates = 99
	ann := mapping.DefaultAnnealConfig()
	ann.Seed = 42

	// The murali pipeline reads neither configuration.
	plain := testRequest(t, "BV_12", "S-4", 8, CompilerMurali)
	configured := plain
	configured.Config, configured.Anneal = &cfg, &ann
	k1, err := RequestKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RequestKey(configured)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("irrelevant Config/Anneal fragmented the murali pipeline key")
	}

	// The ssync pipeline reads Config (so it must key it) but not Anneal.
	splain := testRequest(t, "BV_12", "S-4", 8, CompilerSSync)
	sconf := splain
	sconf.Config = &cfg
	sk1, err := RequestKey(splain)
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := RequestKey(sconf)
	if err != nil {
		t.Fatal(err)
	}
	if sk1 == sk2 {
		t.Error("scheduler config does not reach the ssync pipeline key")
	}
	sann := splain
	sann.Anneal = &ann
	sk3, err := RequestKey(sann)
	if err != nil {
		t.Fatal(err)
	}
	if sk1 != sk3 {
		t.Error("unread Anneal fragmented the ssync pipeline key")
	}
}

// TestCannedAndExplicitPipelinesShareKeys pins the acceptance criterion:
// every built-in compiler name keys identically to its canned pipeline
// written out explicitly, so the two forms coalesce and share cache
// entries.
func TestCannedAndExplicitPipelinesShareKeys(t *testing.T) {
	names, pipelines := pass.BuiltinPipelines()
	for i, name := range names {
		named, err := RequestKey(testRequest(t, "QFT_12", "G-2x2", 8, name))
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := RequestKey(pipelineRequest(t, "QFT_12", "G-2x2", 8, pipelines[i]...))
		if err != nil {
			t.Fatal(err)
		}
		if named != explicit {
			t.Errorf("%s: named key %s != explicit pipeline key %s", name, named, explicit)
		}
	}
}

func TestCannedAndExplicitPipelinesShareCache(t *testing.T) {
	eng := New(Options{})
	named := eng.Do(context.Background(), testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync))
	if named.Err != nil {
		t.Fatal(named.Err)
	}
	if got, want := named.Pipeline, []string{pass.DecomposeBasis, pass.PlaceGreedy, pass.RouteSSync}; !reflect.DeepEqual(got, want) {
		t.Fatalf("named response pipeline %v, want %v", got, want)
	}
	if len(named.Result.PassTimings) != 3 {
		t.Fatalf("named response carries %d pass timings, want 3", len(named.Result.PassTimings))
	}

	explicit := eng.Do(context.Background(), pipelineRequest(t, "QFT_12", "G-2x2", 8, ssyncSpecs()...))
	if explicit.Err != nil {
		t.Fatal(explicit.Err)
	}
	if !explicit.CacheHit {
		t.Error("explicit pipeline missed the cache entry its canned twin created")
	}
	if explicit.Key != named.Key {
		t.Errorf("keys differ: named %s, explicit %s", named.Key, explicit.Key)
	}
	if explicit.Result != named.Result {
		t.Error("explicit pipeline returned a different result object than the canned compile")
	}
	if st := eng.Stats(); st.Compiled != 1 {
		t.Errorf("%d compilations for two equivalent requests, want 1", st.Compiled)
	}
}

func TestConcurrentCannedAndExplicitRequestsCoalesce(t *testing.T) {
	// Mixed named/explicit identical requests in flight at once must
	// produce exactly one compilation between them.
	eng := New(Options{})
	const n = 8
	responses := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var req Request
			if i%2 == 0 {
				req = testRequest(t, "BV_12", "S-4", 8, CompilerSSync)
			} else {
				req = pipelineRequest(t, "BV_12", "S-4", 8, ssyncSpecs()...)
			}
			responses[i] = eng.Do(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, r := range responses {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Key != responses[0].Key {
			t.Fatalf("request %d keyed %s, want %s", i, r.Key, responses[0].Key)
		}
	}
	if st := eng.Stats(); st.Compiled != 1 {
		t.Errorf("%d compilations for %d coalescible requests, want 1", st.Compiled, n)
	}
}

func TestDoRejectsCompilerPlusPipeline(t *testing.T) {
	eng := New(Options{})
	req := pipelineRequest(t, "BV_12", "S-4", 8, ssyncSpecs()...)
	req.Compiler = CompilerSSync
	res := eng.Do(context.Background(), req)
	if res.Err == nil {
		t.Fatal("request with both Compiler and Pipeline accepted")
	}
}

func TestDoUnknownPassIsStructured(t *testing.T) {
	eng := New(Options{})
	res := eng.Do(context.Background(), pipelineRequest(t, "BV_12", "S-4", 8,
		pass.Spec{Name: "llvm-mem2reg"}))
	if res.Err == nil {
		t.Fatal("unknown pass accepted")
	}
	var unknown *pass.UnknownPassError
	if !errors.As(res.Err, &unknown) {
		t.Fatalf("error %v is not an *UnknownPassError", res.Err)
	}
	if st := eng.Stats(); st.Compiled != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want 0 compiled / 1 error", st)
	}
}

func TestStatsAggregatePassTimings(t *testing.T) {
	eng := New(Options{})
	if res := eng.Do(context.Background(), testRequest(t, "BV_12", "S-4", 8, CompilerSSync)); res.Err != nil {
		t.Fatal(res.Err)
	}
	// A cache hit must not re-count pass executions.
	if res := eng.Do(context.Background(), testRequest(t, "BV_12", "S-4", 8, CompilerSSync)); !res.CacheHit {
		t.Fatal("expected a cache hit")
	}
	st := eng.Stats()
	for _, name := range []string{pass.DecomposeBasis, pass.PlaceGreedy, pass.RouteSSync} {
		ps, ok := st.Passes[name]
		if !ok {
			t.Errorf("pass %s missing from Stats.Passes = %v", name, st.Passes)
			continue
		}
		if ps.Runs != 1 {
			t.Errorf("pass %s ran %d times in stats, want 1", name, ps.Runs)
		}
	}
	if _, ok := st.Passes[pass.RouteMurali]; ok {
		t.Error("stats report a pass that never ran")
	}
}

func TestEngineLimitHoldsWorkerSlot(t *testing.T) {
	eng := New(Options{Workers: 1})
	// With the single slot held by LimitAs, a second LimitAs call under
	// an already-cancelled context must fail instead of deadlocking.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = eng.LimitAs(context.Background(), sched.Interactive, func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.LimitAs(ctx, sched.Interactive, func() error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("LimitAs under a held slot and cancelled context: %v, want context.Canceled", err)
	}
	close(release)
	// Once released, LimitAs admits work again and propagates fn's error.
	sentinel := errors.New("sentinel")
	if err := eng.LimitAs(context.Background(), sched.Interactive, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("LimitAs did not propagate fn error: %v", err)
	}
	// An unbounded engine's LimitAs is a plain call.
	if err := New(Options{}).LimitAs(context.Background(), sched.Interactive, func() error { return nil }); err != nil {
		t.Errorf("unbounded LimitAs failed: %v", err)
	}
}
