package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssync/internal/pass"
)

// TestSingleFlightCoalescesConcurrentIdenticalRequests is the acceptance
// proof for coalescing: N concurrent identical requests perform exactly
// one compilation. A gated test compiler blocks the leader until every
// other caller has verifiably attached to its flight, so the assertion
// is deterministic, not timing-dependent.
func TestSingleFlightCoalescesConcurrentIdenticalRequests(t *testing.T) {
	const n = 8
	var invocations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	name := registerTestPass(t, "test/gated", func(ctx context.Context, _ string, st *pass.State) error {
		if invocations.Add(1) == 1 {
			close(started)
			<-release
		}
		return compileSSync(ctx, st)
	})

	eng := New(Options{})
	req := passRequest(t, "BV_12", "S-4", 8, name)
	key, err := RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]Response, n)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = eng.Do(context.Background(), req)
		}()
	}
	launch(0)
	<-started // the leader is inside the compiler, holding the flight open
	for i := 1; i < n; i++ {
		launch(i)
	}
	// Wait until all n-1 followers are attached to the leader's flight;
	// only then let the leader finish.
	for deadline := time.Now().Add(10 * time.Second); eng.flights.waiting(key) < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers attached to the flight", eng.flights.waiting(key), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := invocations.Load(); got != 1 {
		t.Fatalf("compiler ran %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	var coalesced int
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		if r.Result == nil {
			t.Fatalf("request %d has no result", i)
		}
		if r.Coalesced {
			coalesced++
			if r.CacheHit {
				t.Errorf("request %d reports both coalescing and a cache hit", i)
			}
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d requests coalesced, want %d", coalesced, n-1)
	}
	st := eng.Stats()
	if st.Compiled != 1 {
		t.Errorf("stats.Compiled = %d, want 1", st.Compiled)
	}
	if st.Coalesced != n-1 {
		t.Errorf("stats.Coalesced = %d, want %d", st.Coalesced, n-1)
	}

	// Once the flight has landed, the same request is a plain cache hit.
	after := eng.Do(context.Background(), req)
	if after.Err != nil || !after.CacheHit {
		t.Errorf("post-flight request: err=%v hit=%v, want clean cache hit", after.Err, after.CacheHit)
	}
	if got := invocations.Load(); got != 1 {
		t.Errorf("cache-hit request recompiled (invocations = %d)", got)
	}
}

// TestSingleFlightFollowerHonoursOwnContext proves a waiter is bounded by
// its own context, not the leader's: a follower with an already-expired
// deadline fails fast while the leader keeps compiling.
func TestSingleFlightFollowerHonoursOwnContext(t *testing.T) {
	var invocations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	name := registerTestPass(t, "test/gated-ctx", func(ctx context.Context, _ string, st *pass.State) error {
		if invocations.Add(1) == 1 {
			close(started)
			<-release
		}
		return compileSSync(ctx, st)
	})

	eng := New(Options{})
	req := passRequest(t, "BV_12", "S-4", 8, name)
	leaderDone := make(chan Response, 1)
	go func() { leaderDone <- eng.Do(context.Background(), req) }()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	follower := eng.Do(ctx, req)
	if follower.Err == nil {
		t.Error("follower with cancelled context reported success while leader was in flight")
	}

	close(release)
	if leader := <-leaderDone; leader.Err != nil {
		t.Fatalf("leader failed: %v", leader.Err)
	}
	if got := invocations.Load(); got != 1 {
		t.Errorf("compiler ran %d times, want 1", got)
	}
}

// TestSingleFlightRetriesAfterLeaderTimeout proves a waiter does not
// inherit the leader's deadline failure: when the leader times out under
// its own budget, a still-live follower runs the compilation itself.
func TestSingleFlightRetriesAfterLeaderTimeout(t *testing.T) {
	var invocations atomic.Int64
	started := make(chan struct{})
	name := registerTestPass(t, "test/leader-timeout", func(ctx context.Context, _ string, st *pass.State) error {
		if invocations.Add(1) == 1 {
			close(started)
			<-ctx.Done() // burn the leader's whole (tiny) budget
			return ctx.Err()
		}
		return compileSSync(ctx, st)
	})

	eng := New(Options{})
	req := passRequest(t, "BV_12", "S-4", 8, name)
	leader := req
	leader.Timeout = 10 * time.Millisecond
	leaderDone := make(chan Response, 1)
	go func() { leaderDone <- eng.Do(context.Background(), leader) }()
	<-started

	follower := eng.Do(context.Background(), req)
	if follower.Err != nil {
		t.Fatalf("follower inherited the leader's failure: %v", follower.Err)
	}
	if follower.Result == nil {
		t.Fatal("follower has no result")
	}
	if res := <-leaderDone; res.Err == nil {
		t.Error("leader's own timeout did not surface")
	}
	if got := invocations.Load(); got != 2 {
		t.Errorf("compiler ran %d times, want 2 (failed leader + retrying follower)", got)
	}
}

// TestSingleFlightWaiterHonoursOwnTimeout proves Request.Timeout bounds
// a coalesced waiter: a short-deadline request attached to a
// long-running identical flight fails by its own budget.
func TestSingleFlightWaiterHonoursOwnTimeout(t *testing.T) {
	var invocations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	name := registerTestPass(t, "test/gated-waiter-timeout", func(ctx context.Context, _ string, st *pass.State) error {
		if invocations.Add(1) == 1 {
			close(started)
			<-release
		}
		return compileSSync(ctx, st)
	})

	eng := New(Options{})
	req := passRequest(t, "BV_12", "S-4", 8, name)
	leaderDone := make(chan Response, 1)
	go func() { leaderDone <- eng.Do(context.Background(), req) }()
	<-started

	follower := req
	follower.Timeout = 5 * time.Millisecond
	res := eng.Do(context.Background(), follower)
	if res.Err == nil {
		t.Error("short-deadline waiter outlived its own timeout")
	}

	close(release)
	if leader := <-leaderDone; leader.Err != nil {
		t.Fatalf("leader failed: %v", leader.Err)
	}
}

// TestSingleFlightSurvivesPanickingCompiler proves a compiler panic
// cannot poison the key: waiters get an error, the leader's panic
// propagates, and the key compiles fine afterwards.
func TestSingleFlightSurvivesPanickingCompiler(t *testing.T) {
	var invocations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	name := registerTestPass(t, "test/panicking", func(ctx context.Context, _ string, st *pass.State) error {
		if invocations.Add(1) == 1 {
			close(started)
			<-release
			panic("compiler bug")
		}
		return compileSSync(ctx, st)
	})

	eng := New(Options{})
	req := passRequest(t, "BV_12", "S-4", 8, name)
	key, err := RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		eng.Do(context.Background(), req)
	}()
	<-started

	followerDone := make(chan Response, 1)
	go func() { followerDone <- eng.Do(context.Background(), req) }()
	for deadline := time.Now().Add(10 * time.Second); eng.flights.waiting(key) < 1; {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if p := <-leaderPanicked; p == nil {
		t.Error("leader's panic was swallowed")
	}
	follower := <-followerDone
	if follower.Err == nil {
		// The waiter either inherited the panic error or retried and
		// compiled successfully — both are sound; a hang or a nil-result
		// success would not be.
		if follower.Result == nil {
			t.Error("waiter of a panicked flight reported success with no result")
		}
	}
	// The key is not poisoned: a fresh request compiles.
	after := eng.Do(context.Background(), req)
	if after.Err != nil {
		t.Errorf("key poisoned after compiler panic: %v", after.Err)
	}
}

// TestEngineWorkersBoundCompilations proves Options.Workers admits
// cache hits without consuming a compile slot while the slot is held by
// a running compilation.
func TestEngineWorkersBoundCompilations(t *testing.T) {
	var invocations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	name := registerTestPass(t, "test/slot-holder", func(ctx context.Context, _ string, st *pass.State) error {
		if invocations.Add(1) == 1 {
			close(started)
			<-release
		}
		return compileSSync(ctx, st)
	})

	eng := New(Options{Workers: 1})
	slow := passRequest(t, "QFT_12", "G-2x2", 8, name)
	cheap := testRequest(t, "BV_12", "S-4", 8, CompilerSSync)

	// Warm the cache for the cheap request while the engine is idle.
	if res := eng.Do(context.Background(), cheap); res.Err != nil {
		t.Fatal(res.Err)
	}

	slowDone := make(chan Response, 1)
	go func() { slowDone <- eng.Do(context.Background(), slow) }()
	<-started // the single compile slot is now held

	// A cache hit must not need the slot.
	hit := eng.Do(context.Background(), cheap)
	if hit.Err != nil || !hit.CacheHit {
		t.Errorf("cache hit blocked behind the compile slot: err=%v hit=%v", hit.Err, hit.CacheHit)
	}
	// An uncached request, by contrast, queues and times out.
	queued := testRequest(t, "Adder_4", "S-4", 8, CompilerSSync)
	queued.Timeout = 10 * time.Millisecond
	if res := eng.Do(context.Background(), queued); res.Err == nil {
		t.Error("uncached request bypassed the compile-slot bound")
	}

	close(release)
	if res := <-slowDone; res.Err != nil {
		t.Fatalf("slot-holding compile failed: %v", res.Err)
	}
}

// TestLeaderRechecksResultsBeforeCompiling forces the interleaving in
// which a request misses the result cache, an identical flight then
// compiles, caches and lands, and only afterwards does the first request
// open a flight of its own. That new leader must answer from the memory
// tier instead of compiling the key a second time, and the result tier
// must count one miss and one memory hit for the two requests.
func TestLeaderRechecksResultsBeforeCompiling(t *testing.T) {
	eng := New(Options{})
	req := testRequest(t, "BV_12", "S-4", 8, CompilerSSync)
	missed := make(chan struct{})
	release := make(chan struct{})
	var misses atomic.Int64
	eng.afterMiss = func() {
		if misses.Add(1) == 1 {
			close(missed)
			<-release
		}
	}

	late := make(chan Response, 1)
	go func() { late <- eng.Do(context.Background(), req) }()
	<-missed // the first request has missed and not yet opened a flight
	first := eng.Do(context.Background(), req)
	if first.Err != nil || first.CacheHit {
		t.Fatalf("landing request: err=%v hit=%v, want a fresh compile", first.Err, first.CacheHit)
	}
	close(release)
	got := <-late

	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !got.CacheHit || got.CacheTier != "memory" || got.Coalesced {
		t.Errorf("late leader: hit=%v tier=%q coalesced=%v, want a memory-tier hit", got.CacheHit, got.CacheTier, got.Coalesced)
	}
	if got.Result != first.Result {
		t.Error("late leader did not answer with the cached result")
	}
	st := eng.Stats()
	if st.Compiled != 1 {
		t.Errorf("%d compilations for one key, want 1", st.Compiled)
	}
	if st.Results.Misses != 1 || st.Results.MemHits != 1 {
		t.Errorf("result tier misses=%d mem hits=%d, want 1 and 1", st.Results.Misses, st.Results.MemHits)
	}
}
