package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/mapping"
	"ssync/internal/pass"
	"ssync/internal/workloads"
)

// testPassSeq makes test-pass names unique per registration: the pass
// registry is process-wide and append-only, so a fixed name would panic
// under `go test -count=N` (the race-detector CI sweep runs the suite
// several times in one process).
var testPassSeq atomic.Uint64

// testPass is the one stage of a test compiler. Its options carry the
// label it hands run, so a gated pass can report which request reached
// it; the label is also its whole signature.
type testPass struct {
	name  string
	label string
	run   func(ctx context.Context, label string, st *pass.State) error
}

func (p testPass) Name() string                                  { return p.name }
func (p testPass) Signature() string                             { return p.label }
func (p testPass) Run(ctx context.Context, st *pass.State) error { return p.run(ctx, p.label, st) }

// registerTestPass registers run as a pass under a unique name derived
// from base and returns that name. run must set st.Result: the pass is
// a whole compiler, requested as a one-stage pipeline (passRequest).
func registerTestPass(t testing.TB, base string, run func(ctx context.Context, label string, st *pass.State) error) string {
	t.Helper()
	name := fmt.Sprintf("%s#%d", base, testPassSeq.Add(1))
	pass.MustRegister(name, func(options json.RawMessage) (pass.Pass, error) {
		var o struct {
			Label string `json:"label"`
		}
		if len(options) > 0 {
			if err := json.Unmarshal(options, &o); err != nil {
				return nil, err
			}
		}
		return testPass{name: name, label: o.Label, run: run}, nil
	})
	return name
}

// passRequest is testRequest compiled through the one-stage pipeline of
// the test pass name.
func passRequest(t testing.TB, bench, topoName string, capacity int, name string) Request {
	t.Helper()
	r := testRequest(t, bench, topoName, capacity, "")
	return labelled(r, name, r.Label)
}

// labelled returns r through the one-stage pipeline of the test pass
// name, labelled label: as the request label and in the stage's options.
func labelled(r Request, name, label string) Request {
	opts, _ := json.Marshal(map[string]string{"label": label})
	r.Label = label
	r.Pipeline = []pass.Spec{{Name: name, Options: opts}}
	return r
}

// compileSSync is a test pass's stand-in for real work: S-SYNC on the
// state's circuit and device.
func compileSSync(ctx context.Context, st *pass.State) (err error) {
	st.Result, err = core.CompileCtx(ctx, st.Config, st.Circuit, st.Topo)
	return err
}

func testRequest(t testing.TB, bench, topoName string, capacity int, compiler string) Request {
	t.Helper()
	c, err := workloads.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := device.ByName(topoName, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Label: bench + "/" + topoName + "/" + compiler, Circuit: c, Topo: topo, Compiler: compiler}
}

func TestCompilersListsBuiltins(t *testing.T) {
	names := Compilers()
	for _, want := range []string{CompilerMurali, CompilerDai, CompilerSSync, CompilerSSyncAnnealed} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q missing from Compilers() = %v", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Compilers() not sorted: %v", names)
		}
	}
}

func TestDoUnknownCompilerIsStructured(t *testing.T) {
	eng := New(Options{})
	res := eng.Do(context.Background(), testRequest(t, "BV_12", "S-4", 8, "qiskit"))
	if res.Err == nil {
		t.Fatal("unknown compiler accepted")
	}
	var unknown *UnknownCompilerError
	if !errors.As(res.Err, &unknown) {
		t.Fatalf("error %v is not an *UnknownCompilerError", res.Err)
	}
	if unknown.Name != "qiskit" {
		t.Errorf("error names %q, want qiskit", unknown.Name)
	}
	if len(unknown.Known) == 0 || !strings.Contains(unknown.Error(), CompilerSSync) {
		t.Errorf("error does not list registered compilers: %v", unknown)
	}
	if st := eng.Stats(); st.Compiled != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want 0 compiled / 1 error", st)
	}
}

func TestRegisteredCustomCompilerServesDo(t *testing.T) {
	// A custom compiler is a one-pass pipeline: addressable by its pass
	// name and distinguishable from the built-ins at the cache-key level.
	calls := 0
	name := registerTestPass(t, "test/echo-ssync", func(ctx context.Context, _ string, st *pass.State) error {
		calls++
		return compileSSync(ctx, st)
	})
	eng := New(Options{})
	req := passRequest(t, "BV_12", "S-4", 8, name)
	res := eng.Do(context.Background(), req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if calls != 1 {
		t.Fatalf("custom compiler ran %d times, want 1", calls)
	}
	if len(res.Pipeline) != 1 || res.Pipeline[0] != name {
		t.Errorf("response pipeline %v", res.Pipeline)
	}
	ssyncReq := req
	ssyncReq.Pipeline, ssyncReq.Compiler = nil, CompilerSSync
	k1, err := RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RequestKey(ssyncReq)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("custom compiler shares a cache key with ssync")
	}
}

func TestAnnealedCompilerIsDeterministic(t *testing.T) {
	// Two independent engines — separate caches, separately built
	// requests — must agree bit-for-bit on the annealed schedule, or the
	// content-addressed cache would be lying about annealed results.
	run := func() *core.Result {
		eng := New(Options{})
		res := eng.Do(context.Background(), testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSyncAnnealed))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Result
	}
	a, b := run(), run()
	if a.Counts != b.Counts {
		t.Errorf("annealed counts differ across runs: %+v vs %+v", a.Counts, b.Counts)
	}
	if len(a.Schedule.Ops) != len(b.Schedule.Ops) {
		t.Errorf("annealed schedules differ in length: %d vs %d", len(a.Schedule.Ops), len(b.Schedule.Ops))
	}
}

func TestRequestKeyDeterminismAcrossRegistry(t *testing.T) {
	// Same request — freshly built each time, annealer seed included —
	// always yields the same key.
	for _, name := range []string{CompilerMurali, CompilerDai, CompilerSSync, CompilerSSyncAnnealed} {
		k1, err := RequestKey(testRequest(t, "QFT_12", "G-2x2", 8, name))
		if err != nil {
			t.Fatal(err)
		}
		k2, err := RequestKey(testRequest(t, "QFT_12", "G-2x2", 8, name))
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Errorf("%s: key not deterministic: %s vs %s", name, k1, k2)
		}
	}

	// Distinct registry entries never collide on one request.
	names := []string{CompilerMurali, CompilerDai, CompilerSSync, CompilerSSyncAnnealed}
	keys := map[Key]string{}
	for _, name := range names {
		k, err := RequestKey(testRequest(t, "QFT_12", "G-2x2", 8, name))
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("compilers %s and %s collide on key %s", prev, name, k)
		}
		keys[k] = name
	}
}

func TestRequestKeyCoversAnnealSeed(t *testing.T) {
	base := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSyncAnnealed)
	baseKey, err := RequestKey(base)
	if err != nil {
		t.Fatal(err)
	}

	// nil Anneal is the same request as an explicit default config.
	def := mapping.DefaultAnnealConfig()
	explicit := base
	explicit.Anneal = &def
	k, err := RequestKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k != baseKey {
		t.Error("explicit default anneal config changed the key")
	}

	// A different seed is a different request: the annealer walks another
	// trajectory, so its results may not be shared.
	reseeded := mapping.DefaultAnnealConfig()
	reseeded.Seed++
	other := base
	other.Anneal = &reseeded
	k, err = RequestKey(other)
	if err != nil {
		t.Fatal(err)
	}
	if k == baseKey {
		t.Error("anneal seed is not part of the cache key")
	}

	// The seed is irrelevant to the plain ssync compiler only insofar as
	// keys go when Anneal is nil; the annealed name alone must already
	// separate it from ssync.
	plain := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	pk, err := RequestKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	if pk == baseKey {
		t.Error("ssync and ssync-annealed share a key")
	}
}

func TestDefaultPortfolioIncludesAnnealedEntrant(t *testing.T) {
	found := false
	for _, v := range DefaultPortfolio() {
		if v.Compiler != CompilerSSyncAnnealed {
			continue
		}
		found = true
		if v.Anneal == nil {
			t.Fatal("annealed entrant has no explicit anneal config")
		}
		if v.Anneal.Seed != mapping.DefaultAnnealConfig().Seed {
			t.Errorf("annealed entrant seed %d, want the deterministic default %d",
				v.Anneal.Seed, mapping.DefaultAnnealConfig().Seed)
		}
	}
	if !found {
		t.Fatal("default portfolio lacks the ssync-annealed entrant")
	}
}
