package engine

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssync/internal/obs"
	"ssync/internal/pass"
)

// obsContext builds a context carrying a fresh trace and a logger bound
// to its trace ID, writing into the returned buffer (at debug) — what
// ssyncd's edge attaches to every request.
func obsContext() (context.Context, *bytes.Buffer, *obs.Trace) {
	var buf bytes.Buffer
	tr := obs.NewTrace()
	ctx := obs.WithLogger(context.Background(), slog.New(slog.NewTextHandler(&buf,
		&slog.HandlerOptions{Level: slog.LevelDebug})).With("trace_id", tr.ID()))
	ctx = obs.WithTrace(ctx, tr)
	return ctx, &buf, tr
}

func spanNames(spans []obs.Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

func hasSpan(spans []obs.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestCoalescedFollowerKeepsOwnIdentity is the identity proof for the
// coalescing path: when a follower attaches to the leader's in-flight
// compilation, its response still reports Coalesced, its own trace
// carries its coalesce.wait span (not the leader's pass spans), and its
// debug log lines carry the follower's trace ID — never the leader's.
func TestCoalescedFollowerKeepsOwnIdentity(t *testing.T) {
	var invocations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	name := registerTestPass(t, "test/gated-obs", func(ctx context.Context, _ string, st *pass.State) error {
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

	leadCtx, leadBuf, leadTr := obsContext()
	folCtx, folBuf, folTr := obsContext()

	var wg sync.WaitGroup
	var leader, follower Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader = eng.Do(leadCtx, req)
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		follower = eng.Do(folCtx, req)
	}()
	for deadline := time.Now().Add(10 * time.Second); eng.flights.waiting(key) < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("follower never attached to the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if leader.Err != nil || follower.Err != nil {
		t.Fatalf("leader err=%v follower err=%v", leader.Err, follower.Err)
	}
	if leader.Coalesced || !follower.Coalesced {
		t.Fatalf("coalesced: leader=%v follower=%v, want false/true", leader.Coalesced, follower.Coalesced)
	}

	// The follower's trace is its own: a coalesce.wait span, no pass
	// spans (it ran none).
	folSpans := folTr.Spans()
	if !hasSpan(folSpans, "coalesce.wait") {
		t.Errorf("follower trace %v missing coalesce.wait", spanNames(folSpans))
	}
	for _, s := range folSpans {
		if strings.HasPrefix(s.Name, "pass:") {
			t.Errorf("follower trace carries leader pass span %q", s.Name)
		}
	}
	// The leader ran the compilation; it must not claim the wait.
	if leadSpans := leadTr.Spans(); hasSpan(leadSpans, "coalesce.wait") {
		t.Errorf("leader trace %v carries coalesce.wait", spanNames(leadSpans))
	}

	// Each request logged under its own trace ID.
	folLog := folBuf.String()
	if !strings.Contains(folLog, "coalesced onto identical in-flight request") {
		t.Errorf("follower log missing the coalescing mark:\n%s", folLog)
	}
	if !strings.Contains(folLog, "trace_id="+folTr.ID()) {
		t.Errorf("follower log lines missing the follower's trace ID:\n%s", folLog)
	}
	if strings.Contains(folLog, leadTr.ID()) {
		t.Errorf("follower log lines carry the leader's trace ID:\n%s", folLog)
	}
	if strings.Contains(leadBuf.String(), folTr.ID()) {
		t.Errorf("leader log lines carry the follower's trace ID:\n%s", leadBuf.String())
	}
}

// TestTraceSpansCoverPipeline proves a traced pipeline compile records
// the cache probe, admission and one span per executed pass, and that
// a later identical request's trace shows the cache hit instead.
func TestTraceSpansCoverPipeline(t *testing.T) {
	eng := New(Options{Workers: 2, StageCacheSize: 16})
	req := testRequest(t, "BV_12", "S-4", 8, CompilerSSync)

	ctx, _, tr := obsContext()
	res := eng.Do(ctx, req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit {
		t.Fatal("first request hit the cache")
	}
	spans := tr.Spans()
	for _, want := range []string{"cache.results", "admission", "cache.stages"} {
		if !hasSpan(spans, want) {
			t.Errorf("trace %v missing %q", spanNames(spans), want)
		}
	}
	passSpans := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "pass:") {
			passSpans++
		}
	}
	if passSpans != len(res.Result.PassTimings) {
		t.Errorf("%d pass spans for %d executed passes\n%v", passSpans, len(res.Result.PassTimings), spanNames(spans))
	}
	// Span offsets must be ordered and non-negative.
	for i, s := range spans {
		if s.Start < 0 || s.Dur < 0 {
			t.Errorf("span %s has negative offset/duration: %v/%v", s.Name, s.Start, s.Dur)
		}
		if i > 0 && s.Start < spans[i-1].Start {
			t.Errorf("spans not ordered by start: %v", spanNames(spans))
		}
	}

	ctx2, buf2, tr2 := obsContext()
	hit := eng.Do(ctx2, req)
	if hit.Err != nil || !hit.CacheHit {
		t.Fatalf("second request: err=%v hit=%v", hit.Err, hit.CacheHit)
	}
	hitSpans := tr2.Spans()
	if !hasSpan(hitSpans, "cache.results") {
		t.Errorf("cache-hit trace %v missing cache.results", spanNames(hitSpans))
	}
	if hasSpan(hitSpans, "admission") {
		t.Errorf("cache-hit trace %v went through admission", spanNames(hitSpans))
	}
	if !strings.Contains(buf2.String(), "result cache hit") {
		t.Errorf("cache hit not logged:\n%s", buf2.String())
	}
}
