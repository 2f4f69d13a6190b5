package sim

import (
	"math"
	"sync"
	"testing"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/schedule"
	"ssync/internal/workloads"
)

// Concurrent verifies sharing one cache must simulate the reference
// exactly once (single-flight) and all succeed. Run under -race this is
// also the data-race check for the shared reference and the pooled
// replay states.
func TestRefCacheSingleFlightConcurrent(t *testing.T) {
	topo := device.Grid(2, 2, 6)
	src := workloads.QFT(8)
	res, err := core.Compile(core.DefaultConfig(), src, topo)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewRefCache(0)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cache.Verify(src, res.Schedule, 42)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("reference simulated %d times for %d concurrent verifies, want 1", st.Misses, goroutines)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	if st.Bytes != 2*(1<<8)*16 {
		t.Errorf("bytes = %d, want %d", st.Bytes, 2*(1<<8)*16)
	}
}

// The cached-reference verify must agree with the from-scratch one, and
// distinct circuits/seeds must key separately.
func TestRefCacheKeying(t *testing.T) {
	topo := device.Grid(2, 2, 6)
	cache := NewRefCache(0)
	for i, src := range []*circuit.Circuit{workloads.BV(6), workloads.QFT(6)} {
		res, err := core.Compile(core.DefaultConfig(), src, topo)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 2; seed++ {
			if err := VerifySchedule(src, res.Schedule, seed); err != nil {
				t.Fatalf("fresh verify: %v", err)
			}
			if err := cache.Verify(src, res.Schedule, seed); err != nil {
				t.Fatalf("cached verify: %v", err)
			}
		}
		want := uint64(2 * (i + 1))
		if st := cache.Stats(); st.Misses != want {
			t.Fatalf("after circuit %d: misses = %d, want %d (distinct (circuit, seed) pairs)", i, st.Misses, want)
		}
	}
	// Same circuit content in a different *Circuit value hits the cache.
	again := workloads.BV(6)
	if _, err := cache.Get(again, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 4 {
		t.Errorf("content-identical circuit missed: misses = %d, want 4", st.Misses)
	}
}

// Build failures (non-unitary circuits) must not be cached: each Get
// retries, and the cache holds no entry for them.
func TestRefCacheErrorsNotCached(t *testing.T) {
	cache := NewRefCache(0)
	c := circuit.NewCircuit(2)
	c.H(0).Measure(0)
	for i := 0; i < 2; i++ {
		if _, err := cache.Get(c, 1); err == nil {
			t.Fatal("expected error for non-unitary circuit")
		}
	}
	st := cache.Stats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (errors retry)", st.Misses)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("failed builds left %d entries / %d bytes in the cache", st.Entries, st.Bytes)
	}
}

// The cache must stay under its byte bound, evicting least-recently-used
// references.
func TestRefCacheEviction(t *testing.T) {
	// Room for two 6-qubit references (2 states × 64 amps × 16 B = 2048 B).
	src := circuit.NewCircuit(6)
	src.H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4).CX(4, 5)
	cache := NewRefCache(2 * 2048)
	for seed := int64(0); seed < 5; seed++ {
		if _, err := cache.Get(src, seed); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2 after eviction", st.Entries)
	}
	if st.Bytes > 2*2048 {
		t.Errorf("bytes = %d exceeds bound %d", st.Bytes, 2*2048)
	}
	// Seed 4 is the most recent; it must still be cached.
	before := cache.Stats().Misses
	if _, err := cache.Get(src, 4); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != before {
		t.Errorf("most-recent entry was evicted (misses %d -> %d)", before, got)
	}
}

// A reference that alone exceeds the cache's bound is still cached, by
// itself, so concurrent verifies of its circuit share one simulation;
// the next circuit's reference evicts it.
func TestRefCacheKeepsOversizedReferenceAlone(t *testing.T) {
	topo := device.Grid(2, 2, 6)
	src := workloads.QFT(8)
	res, err := core.Compile(core.DefaultConfig(), src, topo)
	if err != nil {
		t.Fatal(err)
	}
	const refBytes = 2 * (1 << 8) * 16
	cache := NewRefCache(1024) // smaller than either reference below

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cache.Verify(src, res.Schedule, 42)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Entries != 1 || st.Bytes != refBytes {
		t.Fatalf("after %d concurrent verifies: %+v, want 1 miss, 1 entry, %d bytes", goroutines, st, refBytes)
	}

	if _, err := cache.Get(src, 42); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != goroutines {
		t.Fatalf("later Get of the oversized reference: %+v, want 1 miss, %d hits", st, goroutines)
	}

	other := circuit.NewCircuit(7)
	other.H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4).CX(4, 5).CX(5, 6)
	if _, err := cache.Get(other, 42); err != nil {
		t.Fatal(err)
	}
	const otherBytes = 2 * (1 << 7) * 16
	if st := cache.Stats(); st.Misses != 2 || st.Entries != 1 || st.Bytes != otherBytes {
		t.Fatalf("after a second circuit: %+v, want 2 misses, 1 entry, %d bytes (the newest alone)", st, otherBytes)
	}
}

// A circuit with a non-finite parameter evolves the reference into NaN
// amplitudes; the NaN overlap must fail verification, not pass it.
func TestVerifyRejectsNaNReference(t *testing.T) {
	src := circuit.NewCircuit(2)
	src.H(0).RZ(math.NaN(), 0).CX(0, 1)
	empty := schedule.New(2)
	if err := VerifySchedule(src, empty, 1); err == nil {
		t.Fatal("an empty schedule verified against a NaN-parameter circuit")
	}
}

// VerifySchedule through a shared reference must still reject schedules
// that diverge from the source circuit.
func TestRefCacheVerifyCatchesDivergence(t *testing.T) {
	topo := device.Grid(2, 2, 6)
	src := workloads.BV(6)
	res, err := core.Compile(core.DefaultConfig(), src, topo)
	if err != nil {
		t.Fatal(err)
	}
	wrong := workloads.QFT(6)
	cache := NewRefCache(0)
	if err := cache.Verify(wrong, res.Schedule, 7); err == nil {
		t.Fatal("verify accepted a schedule compiled from a different circuit")
	}
}

// BenchmarkVerifyScheduleParallel measures the full verify path on an
// 18-qubit compiled schedule (cmd/bench parses it under this name):
// "fresh" re-simulates the reference every iteration (the old
// VerifySchedule behaviour), "shared" resolves it from a warm RefCache
// and only replays the schedule — the portfolio steady state.
func BenchmarkVerifyScheduleParallel(b *testing.B) {
	topo := device.Grid(3, 3, 6)
	src := workloads.QFT(18)
	res, err := core.Compile(core.DefaultConfig(), src, topo)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := VerifySchedule(src, res.Schedule, 42); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		cache := NewRefCache(0)
		if _, err := cache.Get(src, 42); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cache.Verify(src, res.Schedule, 42); err != nil {
				b.Fatal(err)
			}
		}
	})
}
