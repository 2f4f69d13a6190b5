package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"ssync/internal/core"
	"ssync/internal/pass"
	"ssync/internal/sched"
)

// gatedCompiler returns a registered test pass that reports each start
// on starts (by the label in its options) and then blocks until it can
// take one token from proceed, so tests can saturate the engine's worker
// slots and sequence releases deterministically.
func gatedCompiler(t testing.TB, starts chan string, proceed chan struct{}) string {
	t.Helper()
	return registerTestPass(t, "test/gated", func(ctx context.Context, label string, st *pass.State) error {
		select {
		case starts <- label:
		case <-ctx.Done():
			return ctx.Err()
		}
		select {
		case <-proceed:
			st.Result = &core.Result{}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

// waitSched polls the engine's scheduler snapshot until cond holds.
func waitSched(t *testing.T, e *Engine, what string, cond func(*sched.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := e.Stats()
		if st.Sched != nil && cond(st.Sched) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (sched=%+v)", what, st.Sched)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInteractiveNotStarvedByBackgroundFlood is the engine-level
// acceptance-criterion fairness test: with every worker slot held and a
// background flood queued, an interactive request admitted mid-flood
// compiles on the very next slot release, ahead of the whole flood.
func TestInteractiveNotStarvedByBackgroundFlood(t *testing.T) {
	const flood = 8
	starts := make(chan string, flood+2)
	proceed := make(chan struct{})
	comp := gatedCompiler(t, starts, proceed)
	eng := New(Options{CacheSize: -1, Workers: 1})
	req := passRequest(t, "QFT_12", "G-2x2", 8, comp)

	var wg sync.WaitGroup
	do := func(label string, class sched.Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := labelled(req, comp, label)
			r.Priority = class
			if res := eng.Do(context.Background(), r); res.Err != nil {
				t.Errorf("%s: %v", label, res.Err)
			}
		}()
	}

	do("holder", sched.Background)
	if got := <-starts; got != "holder" {
		t.Fatalf("first compile was %q, want holder", got)
	}
	for i := 0; i < flood; i++ {
		do("background", sched.Background)
	}
	waitSched(t, eng, "flood to queue", func(s *sched.Stats) bool { return s.Classes[2].Depth == flood })
	do("interactive", sched.Interactive)
	waitSched(t, eng, "interactive to queue", func(s *sched.Stats) bool { return s.Classes[0].Depth == 1 })

	proceed <- struct{}{} // exactly one slot release
	if got := <-starts; got != "interactive" {
		t.Fatalf("after one release the %q request compiled first; want interactive", got)
	}
	for i := 0; i < flood+1; i++ { // drain: interactive + the flood
		proceed <- struct{}{}
	}
	wg.Wait()

	st := eng.Stats()
	if st.Sched == nil {
		t.Fatal("bounded engine reported no scheduler stats")
	}
	if st.Sched.Busy != 0 || st.Sched.Queued != 0 {
		t.Fatalf("scheduler not quiescent: %+v", st.Sched)
	}
	if got := st.Sched.Classes[0].Admitted; got != 1 {
		t.Errorf("interactive admitted=%d; want 1", got)
	}
	if got := st.Sched.Classes[2].Admitted; got != flood+1 {
		t.Errorf("background admitted=%d; want %d", got, flood+1)
	}
}

func TestEngineQueueFullSheds(t *testing.T) {
	starts := make(chan string, 8)
	proceed := make(chan struct{})
	comp := gatedCompiler(t, starts, proceed)
	eng := New(Options{CacheSize: -1, Workers: 1, QueueLimit: 2})
	req := passRequest(t, "QFT_12", "G-2x2", 8, comp)
	req.Priority = sched.Batch

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // 1 compiling + 2 queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := eng.Do(context.Background(), req); res.Err != nil {
				t.Error(res.Err)
			}
		}()
	}
	<-starts
	waitSched(t, eng, "queue to fill", func(s *sched.Stats) bool { return s.Classes[1].Depth == 2 })

	res := eng.Do(context.Background(), req)
	if !errors.Is(res.Err, sched.ErrQueueFull) {
		t.Fatalf("over-limit request returned %v; want ErrQueueFull", res.Err)
	}
	var qf *sched.QueueFullError
	if !errors.As(res.Err, &qf) || qf.Class != sched.Batch {
		t.Fatalf("shed error lost its structure through the engine: %#v", res.Err)
	}
	if st := eng.Stats(); st.Sched.Classes[1].ShedQueueFull != 1 {
		t.Fatalf("ShedQueueFull=%d; want 1", st.Sched.Classes[1].ShedQueueFull)
	}
	for i := 0; i < 3; i++ {
		proceed <- struct{}{}
	}
	wg.Wait()
	// The shed request never executed: Compiled counts the three
	// admitted compilations only.
	if got := eng.Stats().Compiled; got != 3 {
		t.Errorf("Compiled=%d after drain; want 3 (shed request must not count)", got)
	}
}

func TestEngineDeadlineRejectedOnArrival(t *testing.T) {
	slow := registerTestPass(t, "test/slow", func(ctx context.Context, _ string, st *pass.State) error {
		select {
		case <-time.After(100 * time.Millisecond):
			st.Result = &core.Result{}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	starts := make(chan string, 1)
	proceed := make(chan struct{})
	gated := gatedCompiler(t, starts, proceed)

	eng := New(Options{CacheSize: -1, Workers: 1})
	// Seed the scheduler's service-time estimate with one uncontended
	// ~100ms compile.
	seed := passRequest(t, "QFT_12", "G-2x2", 8, slow)
	if res := eng.Do(context.Background(), seed); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Saturate the only slot.
	hold := passRequest(t, "QFT_12", "G-2x2", 8, gated)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if res := eng.Do(context.Background(), hold); res.Err != nil {
			t.Error(res.Err)
		}
	}()
	<-starts

	// A 20ms absolute deadline against a ~100ms queue-wait estimate is
	// rejected on arrival — ErrDeadline, not a queued timeout. (20ms
	// keeps a wide margin on both sides: well under the estimate, well
	// over the sub-ms dispatch overhead before admission runs.)
	doomed := passRequest(t, "QFT_12", "G-2x2", 8, slow)
	doomed.Deadline = time.Now().Add(20 * time.Millisecond)
	res := eng.Do(context.Background(), doomed)
	if !errors.Is(res.Err, sched.ErrDeadline) {
		t.Fatalf("doomed request returned %v; want ErrDeadline", res.Err)
	}
	var de *sched.DeadlineError
	if !errors.As(res.Err, &de) || de.Estimate <= 0 {
		t.Fatalf("shed error lost its structure through the engine: %#v", res.Err)
	}
	if retry, ok := sched.RetryAfter(res.Err); !ok || retry != de.Retry {
		t.Fatalf("RetryAfter = %v, %v; want %v, true", retry, ok, de.Retry)
	}
	if st := eng.Stats(); st.Sched.Classes[0].ShedDeadline != 1 {
		t.Fatalf("ShedDeadline=%d; want 1", st.Sched.Classes[0].ShedDeadline)
	}
	proceed <- struct{}{}
	wg.Wait()
}

// TestPriorityAndDeadlineOutsideCacheKey: scheduling parameters select
// *when* a request runs, never *what* it computes, so they must not
// fragment the content address (or the coalescing it drives).
func TestPriorityAndDeadlineOutsideCacheKey(t *testing.T) {
	base := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	k0, err := RequestKey(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Request{base, base, base}
	variants[0].Priority = sched.Batch
	variants[1].Priority = sched.Background
	variants[2].Deadline = time.Now().Add(time.Hour)
	variants[2].Priority = sched.Interactive
	for i, v := range variants {
		k, err := RequestKey(v)
		if err != nil {
			t.Fatal(err)
		}
		if k != k0 {
			t.Errorf("variant %d: priority/deadline changed the cache key", i)
		}
	}
}

// TestCoalescedFollowerKeepsOwnDeadline: a follower that attaches to an
// identical in-flight compilation still fails by its own (stricter)
// deadline — coalescing must never substitute the leader's weaker
// budget — and a follower of a different priority class still
// coalesces, since class is outside the key.
func TestCoalescedFollowerKeepsOwnDeadline(t *testing.T) {
	starts := make(chan string, 2)
	proceed := make(chan struct{})
	comp := gatedCompiler(t, starts, proceed)
	eng := New(Options{Workers: 2}) // cached: content addressing + coalescing on
	req := passRequest(t, "QFT_12", "G-2x2", 8, comp)
	key, err := RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: batch class, no deadline
		defer wg.Done()
		r := req
		r.Priority = sched.Batch
		if res := eng.Do(context.Background(), r); res.Err != nil {
			t.Errorf("leader: %v", res.Err)
		}
	}()
	<-starts

	// Follower: interactive class, 20ms absolute deadline. It attaches
	// to the batch leader's flight and must fail on its own budget while
	// the leader keeps running.
	follower := req
	follower.Priority = sched.Interactive
	follower.Deadline = time.Now().Add(20 * time.Millisecond)
	if n := eng.flights.waiting(key); n != 0 {
		t.Fatalf("flight has %d waiters before the follower attached", n)
	}
	res := eng.Do(context.Background(), follower)
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("follower returned %v; want its own DeadlineExceeded", res.Err)
	}
	proceed <- struct{}{}
	wg.Wait()
	// The leader's flight was never disturbed by the follower's expiry.
	if res := eng.Do(context.Background(), req); res.Err != nil || !res.CacheHit {
		t.Fatalf("leader's result not cached: err=%v hit=%v", res.Err, res.CacheHit)
	}
}

// TestFollowerRetriesAfterLeaderShed: admission outcomes are
// per-request — class and deadline are deliberately outside the
// coalescing key — so a follower whose leader was shed (queue full /
// deadline unmeetable in the *leader's* class) must retry under its own
// admission rather than inherit the leader's 429/503.
func TestFollowerRetriesAfterLeaderShed(t *testing.T) {
	var g flightGroup
	key := Key{1}
	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.do(context.Background(), key, func() (*core.Result, error) {
			// Hold the flight open until the follower has attached, then
			// fail the way the scheduler sheds a full batch queue.
			for deadline := time.Now().Add(10 * time.Second); g.waiting(key) == 0; {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("no follower ever attached")
				}
				time.Sleep(time.Millisecond)
			}
			return nil, fmt.Errorf("engine: request %q: %w", "leader",
				&sched.QueueFullError{Class: sched.Batch, Limit: 1})
		})
		leaderErr <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		g.mu.Lock()
		_, ok := g.m[key]
		g.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered its flight")
		}
		time.Sleep(time.Millisecond)
	}

	// The follower attaches, sees the leader shed, and retries as the
	// new leader under its own (admissible) terms.
	res, err, _ := g.do(context.Background(), key, func() (*core.Result, error) {
		return &core.Result{}, nil
	})
	if err != nil || res == nil {
		t.Fatalf("follower inherited the leader's shed: res=%v err=%v", res, err)
	}
	if err := <-leaderErr; !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("leader's own outcome = %v; want its queue-full shed", err)
	}
}

func TestUnboundedEngineHasNoScheduler(t *testing.T) {
	eng := New(Options{CacheSize: -1})
	if st := eng.Stats(); st.Sched != nil {
		t.Fatalf("unbounded engine reported scheduler stats: %+v", st.Sched)
	}
	// LimitAs degrades to a plain call.
	ran := false
	if err := eng.LimitAs(context.Background(), sched.Background, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("LimitAs on an unbounded engine: ran=%v err=%v", ran, err)
	}
}

func TestDoRejectsUnknownPriority(t *testing.T) {
	eng := New(Options{CacheSize: -1}) // even without a scheduler
	req := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	req.Priority = "urgent"
	if res := eng.Do(context.Background(), req); res.Err == nil {
		t.Fatal("unknown priority class accepted")
	}
}

// BenchmarkSchedulerMixedLoad measures interactive request latency
// through a worker-bounded engine, quiet versus under a saturating
// concurrent batch flood, reporting p50/p99 per case. The compiler is a
// fixed 1ms stand-in so the numbers isolate scheduling, not compilation.
func BenchmarkSchedulerMixedLoad(b *testing.B) {
	work := registerTestPass(b, "bench/1ms", func(ctx context.Context, _ string, st *pass.State) error {
		select {
		case <-time.After(time.Millisecond):
			st.Result = &core.Result{}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	mk := func(label string, class sched.Class) Request {
		r := labelled(passRequest(b, "QFT_12", "G-2x2", 8, work), work, label)
		r.Priority = class
		return r
	}
	for _, flood := range []struct {
		name       string
		submitters int
	}{{"quiet", 0}, {"batch-flood", 16}} {
		b.Run(flood.name, func(b *testing.B) {
			eng := New(Options{CacheSize: -1, Workers: 4})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < flood.submitters; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := mk("flood", sched.Batch)
					for {
						select {
						case <-stop:
							return
						default:
						}
						eng.Do(context.Background(), req)
					}
				}()
			}
			req := mk("interactive", sched.Interactive)
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if res := eng.Do(context.Background(), req); res.Err != nil {
					b.Fatal(res.Err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			b.ReportMetric(ms(lat[len(lat)/2]), "p50-ms")
			b.ReportMetric(ms(lat[len(lat)*99/100]), "p99-ms")
		})
	}
}
