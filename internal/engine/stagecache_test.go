package engine

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ssync/internal/core"
	"ssync/internal/pass"
	"ssync/internal/schedule"
	"ssync/internal/store"
)

// routeVariantSpecs builds the three route-variant pipelines sharing one
// decompose→place prefix.
func routeVariantSpecs(route string) []pass.Spec {
	return []pass.Spec{{Name: pass.DecomposeBasis}, {Name: pass.PlaceGreedy}, {Name: route}}
}

func mustPrefixKeys(t *testing.T, req Request) []store.Key {
	t.Helper()
	x, err := resolveExec(req)
	if err != nil {
		t.Fatal(err)
	}
	return prefixKeys(req, x, "")
}

// TestPrefixChainDeterminism pins the stage-key contract: the canned
// "ssync" compiler and its explicit pipeline derive the same prefix
// chain, repeated computation is stable, and the chain has one key per
// snapshotable boundary.
func TestPrefixChainDeterminism(t *testing.T) {
	canned := mustPrefixKeys(t, testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync))
	explicit := mustPrefixKeys(t, pipelineRequest(t, "QFT_12", "G-2x2", 8, ssyncSpecs()...))
	if len(canned) != 2 {
		t.Fatalf("prefix chain has %d keys for a 3-stage pipeline, want 2", len(canned))
	}
	if !reflect.DeepEqual(canned, explicit) {
		t.Errorf("canned vs explicit pipeline prefix chains differ:\n%v\n%v", canned, explicit)
	}
	again := mustPrefixKeys(t, testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync))
	if !reflect.DeepEqual(canned, again) {
		t.Error("prefix chain not deterministic across computations")
	}
}

// TestPrefixChainSharedAcrossRouteVariants is the reuse precondition:
// pipelines that differ only in their final routing stage share every
// prefix key, and requests that differ only in scheduler knobs share the
// decompose→place prefix (placement reads only the mapping sub-config).
func TestPrefixChainSharedAcrossRouteVariants(t *testing.T) {
	ssync := mustPrefixKeys(t, pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteSSync)...))
	murali := mustPrefixKeys(t, pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteMurali)...))
	dai := mustPrefixKeys(t, pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteDai)...))
	if !reflect.DeepEqual(ssync, murali) || !reflect.DeepEqual(ssync, dai) {
		t.Error("route variants do not share the decompose→place prefix chain")
	}

	// Scheduler-knob changes (the ablation axis) leave the prefix chain
	// alone — only the route stage reads them — while the full request
	// keys must differ.
	tweaked := pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteSSync)...)
	cfg := core.DefaultConfig()
	cfg.LookaheadGates = 0
	tweaked.Config = &cfg
	if got := mustPrefixKeys(t, tweaked); !reflect.DeepEqual(ssync, got) {
		t.Error("scheduler-knob change fragmented the decompose→place prefix")
	}
	base := pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteSSync)...)
	kBase, err := RequestKey(base)
	if err != nil {
		t.Fatal(err)
	}
	kTweaked, err := RequestKey(tweaked)
	if err != nil {
		t.Fatal(err)
	}
	if kBase == kTweaked {
		t.Error("scheduler-knob change did not change the request key")
	}

	// A mapping change fragments the place boundary but not the
	// decompose boundary.
	mapped := pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteSSync)...)
	mcfg := core.DefaultConfig()
	mcfg.Mapping.Strategy++
	mapped.Config = &mcfg
	got := mustPrefixKeys(t, mapped)
	if got[0] != ssync[0] {
		t.Error("mapping change fragmented the decompose boundary (no stage there reads config)")
	}
	if got[1] == ssync[1] {
		t.Error("mapping change did not change the place boundary key")
	}
}

// TestStagePrefixReuseAcrossRouteVariants is the acceptance criterion:
// compiling one circuit through all three route variants executes
// decompose-basis and place-greedy exactly once, verified by the
// per-stage hit counters, with results identical to a stage-cache-free
// engine.
func TestStagePrefixReuseAcrossRouteVariants(t *testing.T) {
	ctx := context.Background()
	routes := []string{pass.RouteSSync, pass.RouteMurali, pass.RouteDai}

	plain := New(Options{})
	cached := New(Options{StageCacheSize: 16})
	for _, route := range routes {
		req := pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(route)...)
		want := plain.Do(ctx, req)
		got := cached.Do(ctx, req)
		if want.Err != nil || got.Err != nil {
			t.Fatalf("%s: errs %v / %v", route, want.Err, got.Err)
		}
		if !reflect.DeepEqual(got.Result.Schedule, want.Result.Schedule) {
			t.Errorf("%s: stage-cached schedule differs from plain compilation", route)
		}
		if len(got.Result.PassTimings) != 3 {
			t.Errorf("%s: response reports %d pass timings, want 3 (restored stages replayed)",
				route, len(got.Result.PassTimings))
		}
	}

	st := cached.Stats()
	for _, stage := range []string{pass.DecomposeBasis, pass.PlaceGreedy} {
		ps := st.Passes[stage]
		if ps.Runs != 1 {
			t.Errorf("%s ran %d times across three route variants, want exactly 1", stage, ps.Runs)
		}
		if ps.CacheHits != 2 {
			t.Errorf("%s stage cache hits = %d, want 2", stage, ps.CacheHits)
		}
	}
	for _, route := range routes {
		if ps := st.Passes[route]; ps.Runs != 1 || ps.CacheHits != 0 {
			t.Errorf("%s: runs=%d hits=%d, want 1 run 0 hits", route, ps.Runs, ps.CacheHits)
		}
	}
	if st.Stages.MemHits != 2 {
		t.Errorf("stage tier mem hits = %d, want 2", st.Stages.MemHits)
	}
	// Boundaries published: decompose + place for the first variant; the
	// other two resumed from the place boundary and published nothing new.
	if st.Stages.Puts != 2 {
		t.Errorf("stage tier puts = %d, want 2", st.Stages.Puts)
	}
	// The plain engine ran everything.
	for _, stage := range []string{pass.DecomposeBasis, pass.PlaceGreedy} {
		if ps := plain.Stats().Passes[stage]; ps.Runs != 3 || ps.CacheHits != 0 {
			t.Errorf("plain engine %s: runs=%d hits=%d, want 3 runs 0 hits", stage, ps.Runs, ps.CacheHits)
		}
	}
}

// TestDiskTierServesAcrossRestart is the persistence acceptance
// criterion: an engine restarted over the same -cache-dir serves a
// previously compiled request from the disk tier without re-running any
// pass. Stage snapshots live in memory only, so a *new* route variant
// after the restart re-runs decompose and place, and the directory holds
// one blob per compiled result and nothing else.
func TestDiskTierServesAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	req := func() Request {
		return pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteSSync)...)
	}

	eng1, err := Open(Options{StageCacheSize: 16, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := eng1.Do(ctx, req())
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first compile reported a cache hit")
	}

	// "Restart": a fresh engine over the same directory.
	eng2, err := Open(Options{StageCacheSize: 16, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second := eng2.Do(ctx, req())
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit || second.CacheTier != "disk" {
		t.Fatalf("restarted engine: hit=%v tier=%q, want disk-tier hit", second.CacheHit, second.CacheTier)
	}
	if !reflect.DeepEqual(second.Result.Schedule, first.Result.Schedule) {
		t.Error("disk-tier result differs from the original compilation")
	}
	if second.Result.Counts != first.Result.Counts {
		t.Errorf("disk-tier counts %+v != original %+v", second.Result.Counts, first.Result.Counts)
	}
	st := eng2.Stats()
	if st.Compiled != 0 || len(st.Passes) != 0 {
		t.Errorf("restarted engine compiled %d requests, ran passes %v — want none", st.Compiled, st.Passes)
	}
	if st.Results.DiskHits != 1 {
		t.Errorf("result tier disk hits = %d, want 1", st.Results.DiskHits)
	}

	// A route variant never compiled before the restart finds no stage
	// snapshot: it runs every stage.
	third := eng2.Do(ctx, pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteMurali)...))
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if third.CacheHit {
		t.Fatal("new route variant reported a whole-result cache hit")
	}
	st = eng2.Stats()
	for _, stage := range []string{pass.DecomposeBasis, pass.PlaceGreedy, pass.RouteMurali} {
		if ps := st.Passes[stage]; ps.Runs != 1 || ps.CacheHits != 0 {
			t.Errorf("%s after restart: runs=%d hits=%d, want 1 run 0 hits", stage, ps.Runs, ps.CacheHits)
		}
	}
	if st.Stages.HasDisk || st.Stages.DiskHits != 0 {
		t.Errorf("stage tier has disk=%v with %d disk hits, want a memory-only tier", st.Stages.HasDisk, st.Stages.DiskHits)
	}

	// Three route variants compiled over the directory leave exactly
	// three blobs: the results.
	if fourth := eng2.Do(ctx, pipelineRequest(t, "QFT_12", "G-2x2", 8, routeVariantSpecs(pass.RouteDai)...)); fourth.Err != nil {
		t.Fatal(fourth.Err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.blob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 3 {
		t.Errorf("cache directory holds %d blobs after three compiled results, want 3", len(blobs))
	}
}

// TestRacePortfolioReusesPlacement: the default portfolio's gathering
// and commutation entrants share their decompose→place prefix (the
// commutation knob is a scheduler setting), and every entrant shares
// decomposition — "reuse a placement across route variants" on the
// racing path.
func TestRacePortfolioReusesPlacement(t *testing.T) {
	eng := New(Options{StageCacheSize: 32})
	req := testRequest(t, "QFT_12", "G-2x2", 8, "")
	out, err := eng.Race(context.Background(), req.Circuit, req.Topo, nil, RaceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.WinnerIndex < 0 {
		t.Fatal("no winner")
	}
	st := eng.Stats()
	ps := st.Passes[pass.DecomposeBasis]
	if ps.Runs+ps.CacheHits != 5 || ps.CacheHits < 4 {
		t.Errorf("decompose across 5 entrants: runs=%d hits=%d, want 1 run, 4 hits", ps.Runs, ps.CacheHits)
	}
	place := st.Passes[pass.PlaceGreedy]
	// gathering/even-divided/sta/commutation place with greedy; gathering
	// and commutation share a mapping config, so at most 3 executions.
	if place.Runs+place.CacheHits != 4 || place.CacheHits < 1 {
		t.Errorf("place-greedy across 4 greedy entrants: runs=%d hits=%d, want ≥1 reuse", place.Runs, place.CacheHits)
	}
}

// TestResultArtifactRoundTrip pins the disk wire form of a compiled
// result: everything a response renders survives encode/decode.
func TestResultArtifactRoundTrip(t *testing.T) {
	req := testRequest(t, "BV_12", "S-4", 8, CompilerSSync)
	res, err := Direct(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(blob, req.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schedule, res.Schedule) {
		t.Error("schedule did not round-trip")
	}
	if got.Counts != res.Counts || got.CompileTime != res.CompileTime ||
		got.Iterations != res.Iterations || got.Fallbacks != res.Fallbacks {
		t.Error("scalar fields did not round-trip")
	}
	if !reflect.DeepEqual(got.PassTimings, res.PassTimings) {
		t.Error("pass timings did not round-trip")
	}
	if got.Initial == nil || !reflect.DeepEqual(got.Initial.Permutation(), res.Initial.Permutation()) {
		t.Error("initial placement did not round-trip")
	}
	if got.Final == nil || !reflect.DeepEqual(got.Final.Permutation(), res.Final.Permutation()) {
		t.Error("final placement did not round-trip")
	}
	if _, err := decodeResult([]byte("ssync-snap-v1\x00{}"), req.Topo); err == nil {
		t.Error("decoded a snapshot blob as a result")
	}
}

// tamperedResult returns a copy of res, with its own copy of the
// schedule, after edit; res itself stays untouched.
func tamperedResult(res *core.Result, edit func(r *core.Result)) *core.Result {
	out := *res
	s := &schedule.Schedule{NumQubits: res.Schedule.NumQubits}
	for _, op := range res.Schedule.Ops {
		op.Qubits = slices.Clone(op.Qubits)
		s.Ops = append(s.Ops, op)
	}
	out.Schedule = s
	edit(&out)
	return &out
}

// firstOp returns the index of the first op of kind k.
func firstOp(t *testing.T, s *schedule.Schedule, k schedule.Kind) int {
	t.Helper()
	for i, op := range s.Ops {
		if op.Kind == k {
			return i
		}
	}
	t.Fatalf("schedule has no %s op", k)
	return -1
}

// TestDecodeResultRejectsInconsistentBlobs: a well-formed blob whose
// schedule would make sim.Run index out of range, or whose counts
// disagree with its schedule, fails to decode.
func TestDecodeResultRejectsInconsistentBlobs(t *testing.T) {
	req := testRequest(t, "BV_12", "S-4", 8, CompilerSSync)
	res, err := Direct(req)
	if err != nil {
		t.Fatal(err)
	}
	op := func(k schedule.Kind, edit func(op *schedule.Op)) func(r *core.Result) {
		return func(r *core.Result) { edit(&r.Schedule.Ops[firstOp(t, r.Schedule, k)]) }
	}
	edits := map[string]func(r *core.Result){
		"qubit past the circuit":    op(schedule.Gate1Q, func(op *schedule.Op) { op.Qubits[0] = 18 }),
		"negative qubit count":      func(r *core.Result) { r.Schedule.NumQubits, r.Schedule.Ops = -1, nil },
		"more qubits than ions":     func(r *core.Result) { r.Schedule.NumQubits = 1 << 40 },
		"trap past the device":      op(schedule.Split, func(op *schedule.Op) { op.Trap = 4 }),
		"negative trap":             op(schedule.Gate2Q, func(op *schedule.Op) { op.Trap = -1 }),
		"segment past the device":   op(schedule.Move, func(op *schedule.Op) { op.Segment = len(req.Topo.Segments) }),
		"move without an ion":       op(schedule.Move, func(op *schedule.Op) { op.Qubits = nil }),
		"counts not the schedule's": func(r *core.Result) { r.Counts.Shuttles = 0 },
	}
	for name, edit := range edits {
		blob, err := encodeResult(tamperedResult(res, edit))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeResult(blob, req.Topo); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestUncheckedDiskResultIsRecompiled: a checksum-valid result blob
// whose schedule names a qubit the circuit does not have is recompiled,
// not served, and the recompile overwrites it.
func TestUncheckedDiskResultIsRecompiled(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	req := testRequest(t, "BV_12", "S-4", 8, CompilerSSync)
	eng1, err := Open(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := eng1.Do(ctx, req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	blob, err := encodeResult(tamperedResult(first.Result, func(r *core.Result) {
		r.Schedule.Ops[firstOp(t, r.Schedule, schedule.Gate1Q)].Qubits[0] = 18 // BV_12 has 13 qubits
	}))
	if err != nil {
		t.Fatal(err)
	}
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put(store.Key(first.Key), blob); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second := eng2.Do(ctx, req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if second.CacheHit {
		t.Fatalf("tampered blob served as a %s-tier hit", second.CacheTier)
	}
	if !reflect.DeepEqual(second.Result.Schedule, first.Result.Schedule) {
		t.Error("recompiled schedule differs from the original")
	}
	if st := eng2.Stats(); st.Compiled != 1 || st.Results.Errors != 1 {
		t.Errorf("compiled=%d result-tier errors=%d, want 1 and 1", st.Compiled, st.Results.Errors)
	}

	eng3, err := Open(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if third := eng3.Do(ctx, req); !third.CacheHit || third.CacheTier != "disk" {
		t.Errorf("after the recompile: hit=%v tier=%q, want the healed blob from disk", third.CacheHit, third.CacheTier)
	}
}
