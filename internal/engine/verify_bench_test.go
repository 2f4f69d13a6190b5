package engine

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/pass"
	"ssync/internal/schedule"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// BenchmarkPortfolioVerifyShared measures what state-vector verification
// costs a 4-entrant portfolio per race: "fresh" simulates the reference
// from scratch for every entrant (the old per-call VerifySchedule
// behaviour), "shared" resolves it once from a reference cache and each
// entrant only replays its own schedule. The verify work drop is the
// cache's miss count: 4 reference simulations per race down to 1 per
// cache lifetime.
func BenchmarkPortfolioVerifyShared(b *testing.B) {
	topo := device.Grid(3, 3, 6)
	src := workloads.QFT(18)
	variants := DefaultPortfolio()[:4]
	scheds := make([]*schedule.Schedule, len(variants))
	for i, v := range variants {
		res, err := core.Compile(*v.Config, src, topo)
		if err != nil {
			b.Fatalf("%s: %v", v.Name, err)
		}
		scheds[i] = res.Schedule
	}
	const seed = 42

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range scheds {
				if err := sim.VerifySchedule(src, s, seed); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		cache := sim.NewRefCache(0)
		if _, err := cache.Get(src, seed); err != nil {
			b.Fatal(err)
		}
		before := cache.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range scheds {
				if err := cache.Verify(src, s, seed); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		st := cache.Stats()
		if st.Misses != before.Misses {
			b.Fatalf("shared verify re-simulated the reference: misses %d -> %d", before.Misses, st.Misses)
		}
		b.ReportMetric(float64(st.Hits-before.Hits)/float64(b.N), "ref-hits/op")
	})
}

// verifySeeds hands each TestPortfolioVerifySharesReference run a
// witness seed no earlier run used, so its reference starts cold in the
// process-wide sim.SharedRefs however often the test repeats (-count).
var verifySeeds atomic.Int64

// The verify-statevec pass must hit the shared reference cache across
// portfolio entrants: one miss for the first entrant, hits for the rest.
func TestPortfolioVerifySharesReference(t *testing.T) {
	topo := device.Grid(2, 2, 6)
	src := workloads.QFT(8)
	variants := DefaultPortfolio()[:4]
	seed := verifySeeds.Add(1)
	before := sim.SharedRefs.Stats()

	eng := New(Options{CacheSize: -1})
	for i, v := range variants {
		req := v.request(src, topo)
		req.Pipeline = appendVerify(t, req, seed)
		req.Compiler = ""
		res := eng.Do(t.Context(), req)
		if res.Err != nil {
			t.Fatalf("entrant %d (%s): %v", i, v.Name, res.Err)
		}
	}

	st := sim.SharedRefs.Stats()
	if got := st.Misses - before.Misses; got != 1 {
		t.Errorf("4 verifying entrants simulated the reference %d times, want 1", got)
	}
	if got := st.Hits - before.Hits; got != 3 {
		t.Errorf("ref-cache hits = %d, want 3", got)
	}
}

// appendVerify resolves a request's compiler to its canned pipeline and
// appends a verify-statevec stage with the given witness seed, mirroring
// what a verifying service pipeline looks like.
func appendVerify(t *testing.T, req Request, seed int64) []pass.Spec {
	t.Helper()
	specs, ok := pass.BuiltinPipeline(req.Compiler)
	if !ok {
		t.Fatalf("no canned pipeline for compiler %q", req.Compiler)
	}
	return append(specs, pass.Spec{Name: pass.VerifyStatevec,
		Options: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, seed))})
}
