package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{
		"": Interactive, "interactive": Interactive, "batch": Batch, "background": Background,
	} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("urgent"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
}

func TestAcquireImmediateWhenSlotsFree(t *testing.T) {
	s := New(Config{Slots: 2})
	rel1, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Acquire(context.Background(), Background)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Busy != 2 || st.Queued != 0 {
		t.Fatalf("busy=%d queued=%d; want 2 busy, 0 queued", st.Busy, st.Queued)
	}
	rel1()
	rel2()
	rel2() // idempotent: double release must not free a phantom slot
	st = s.Stats()
	if st.Busy != 0 {
		t.Fatalf("busy=%d after release; want 0", st.Busy)
	}
	if got := st.Classes[0].Admitted + st.Classes[2].Admitted; got != 2 {
		t.Fatalf("admitted=%d; want 2", got)
	}
}

// TestInteractiveStartsWithinOneRelease is the acceptance-criterion
// fairness property: an interactive request that arrives while a
// saturating background flood holds every slot and fills the queue is
// handed the very next released slot, ahead of every queued flood
// entry.
func TestInteractiveStartsWithinOneRelease(t *testing.T) {
	const flood = 16
	s := New(Config{Slots: 1})
	relHold, err := s.Acquire(context.Background(), Background)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	floodDone := make(chan struct{}, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := s.Acquire(context.Background(), Background)
			if err != nil {
				t.Error(err)
				return
			}
			floodDone <- struct{}{}
			rel()
		}()
	}
	waitFor(t, "flood to queue", func() bool { return s.Stats().Classes[2].Depth == flood })

	interactiveGot := make(chan func(), 1)
	go func() {
		rel, err := s.Acquire(context.Background(), Interactive)
		if err != nil {
			t.Error(err)
			return
		}
		interactiveGot <- rel
	}()
	waitFor(t, "interactive to queue", func() bool { return s.Stats().Classes[0].Depth == 1 })

	relHold() // exactly one slot release
	select {
	case rel := <-interactiveGot:
		if n := len(floodDone); n != 0 {
			t.Fatalf("%d flood entries started before the interactive request", n)
		}
		rel()
	case <-time.After(5 * time.Second):
		t.Fatal("interactive request did not start within one slot release")
	}
	wg.Wait()
}

// TestWeightedShareBetweenFloods drives a fixed number of handoffs
// through two saturated queues and checks each class's share matches
// its weight — proportional service, no outright starvation of the
// low-weight class.
func TestWeightedShareBetweenFloods(t *testing.T) {
	const perClass = 20
	s := New(Config{Slots: 1})
	relHold, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	type served struct{ class Class }
	order := make(chan served, 2*perClass)
	var wg sync.WaitGroup
	for _, class := range []Class{Batch, Background} {
		for i := 0; i < perClass; i++ {
			wg.Add(1)
			go func(class Class) {
				defer wg.Done()
				rel, err := s.Acquire(context.Background(), class)
				if err != nil {
					t.Error(err)
					return
				}
				order <- served{class}
				rel()
			}(class)
		}
	}
	waitFor(t, "both floods to queue", func() bool {
		st := s.Stats()
		return st.Classes[1].Depth == perClass && st.Classes[2].Depth == perClass
	})
	relHold()
	wg.Wait()
	close(order)

	// Batch weighs 4, background 1: among the first 10 handoffs both
	// queues are still non-empty, so batch must win 8 of them.
	batchEarly := 0
	seen := 0
	for sv := range order {
		if seen < 10 && sv.class == Batch {
			batchEarly++
		}
		seen++
	}
	if seen != 2*perClass {
		t.Fatalf("served %d; want %d", seen, 2*perClass)
	}
	if batchEarly != 8 {
		t.Fatalf("batch won %d of the first 10 handoffs; want 8 (weight 4 vs 1)", batchEarly)
	}
}

// TestFreshArrivalWinsDespiteBankedCredits is the stale-credit
// regression: serve interleaved interactive+batch handoffs until the
// interactive queue drains (leaving it with a served-debt and batch
// with a banked lose-streak claim), keep the batch flood running, then
// re-arrive interactive — it must still win the very next handoff.
// Without zeroing drained classes' credits, batch's banked credit
// outranks the fresh arrival and the next-slot guarantee silently
// breaks after the first mixed burst.
func TestFreshArrivalWinsDespiteBankedCredits(t *testing.T) {
	s := New(Config{Slots: 1})
	served := make(chan Class, 16)
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	acquire := func(class Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := s.Acquire(context.Background(), class)
			if err != nil {
				t.Error(err)
				return
			}
			served <- class
			<-proceed // hold the slot so the test paces every handoff
			rel()
		}()
	}
	acquire(Batch) // holder
	if got := <-served; got != Batch {
		t.Fatalf("holder class %v", got)
	}
	// Two interactive + four batch queued behind the holder.
	for i := 0; i < 2; i++ {
		acquire(Interactive)
	}
	for i := 0; i < 4; i++ {
		acquire(Batch)
	}
	waitFor(t, "queues to fill", func() bool {
		st := s.Stats()
		return st.Classes[0].Depth == 2 && st.Classes[1].Depth == 4
	})
	// H1, H2: interactive wins both (weight 16 vs 4), draining its queue
	// with credit -8 banked and batch at +8 under the pre-fix arithmetic.
	for i := 0; i < 2; i++ {
		proceed <- struct{}{}
		if got := <-served; got != Interactive {
			t.Fatalf("handoff %d went to %v; want interactive", i+1, got)
		}
	}
	// H3: only batch is queued.
	proceed <- struct{}{}
	if got := <-served; got != Batch {
		t.Fatalf("batch-only handoff went to %v", got)
	}
	// Fresh interactive arrival mid-flood.
	acquire(Interactive)
	waitFor(t, "fresh interactive to queue", func() bool { return s.Stats().Classes[0].Depth == 1 })
	// H4: the fresh arrival must win immediately, banked credits or not.
	proceed <- struct{}{}
	if got := <-served; got != Interactive {
		t.Fatalf("fresh interactive arrival lost the next handoff to %v (stale WRR credits)", got)
	}
	for i := 0; i < 4; i++ { // drain: 3 queued batch + the winner's hold
		proceed <- struct{}{}
	}
	wg.Wait()
}

func TestQueueFullShedding(t *testing.T) {
	s := New(Config{Slots: 1, QueueLimit: 2})
	relHold, err := s.Acquire(context.Background(), Batch)
	if err != nil {
		t.Fatal(err)
	}
	defer relHold()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := s.Acquire(context.Background(), Batch)
			if err != nil {
				t.Error(err)
				return
			}
			rel()
		}()
	}
	waitFor(t, "queue to fill", func() bool { return s.Stats().Classes[1].Depth == 2 })

	_, err = s.Acquire(context.Background(), Batch)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit acquire returned %v; want ErrQueueFull", err)
	}
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Class != Batch || qf.Limit != 2 {
		t.Fatalf("structured error = %#v; want Batch/2", err)
	}
	if !Shed(err) {
		t.Error("Shed(queue-full) = false")
	}
	// Other classes have their own queues: an interactive arrival still
	// queues fine.
	ctx, cancel := context.WithCancel(context.Background())
	ictx := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Interactive)
		ictx <- err
	}()
	waitFor(t, "interactive to queue", func() bool { return s.Stats().Classes[0].Depth == 1 })
	cancel()
	if err := <-ictx; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled interactive acquire returned %v", err)
	}
	if got := s.Stats().Classes[1].ShedQueueFull; got != 1 {
		t.Fatalf("ShedQueueFull=%d; want 1", got)
	}
	relHold()
	wg.Wait()
}

func TestDeadlineRejectedOnArrival(t *testing.T) {
	s := New(Config{Slots: 1})
	// Seed the service-time model directly: each slot hold costs ~1s.
	s.mu.Lock()
	s.avgService = time.Second
	s.mu.Unlock()
	relHold, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	defer relHold()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = s.Acquire(ctx, Interactive)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("doomed acquire returned %v; want ErrDeadline", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) || de.Estimate <= 0 {
		t.Fatalf("structured error = %#v; want a positive estimate", err)
	}
	if retry, ok := RetryAfter(fmt.Errorf("engine: request %q: %w", "r", err)); !ok || retry != de.Retry {
		t.Fatalf("RetryAfter through a wrap = %v, %v; want %v, true", retry, ok, de.Retry)
	}
	st := s.Stats()
	if st.Classes[0].ShedDeadline != 1 {
		t.Fatalf("ShedDeadline=%d; want 1", st.Classes[0].ShedDeadline)
	}
	if st.Queued != 0 {
		t.Fatalf("rejected request left %d queued", st.Queued)
	}

	// A deadline the estimate fits (queue empty beyond the holder →
	// estimate ≈ 1s < 10s) queues instead of shedding.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	got := make(chan error, 1)
	go func() {
		rel, err := s.Acquire(ctx2, Interactive)
		if err == nil {
			rel()
		}
		got <- err
	}()
	waitFor(t, "admissible request to queue", func() bool { return s.Stats().Classes[0].Depth == 1 })
	relHold()
	if err := <-got; err != nil {
		t.Fatalf("admissible request failed: %v", err)
	}
}

// TestColdSchedulerNeverDeadlineSheds: with no service-time
// observations there is no estimate, so even a tight deadline queues
// rather than being rejected on a guess.
func TestColdSchedulerNeverDeadlineSheds(t *testing.T) {
	s := New(Config{Slots: 1})
	relHold, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = s.Acquire(ctx, Interactive)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cold-scheduler acquire returned %v; want DeadlineExceeded from queue wait", err)
	}
	if st := s.Stats(); st.Classes[0].ShedDeadline != 0 || st.Classes[0].Abandoned != 1 {
		t.Fatalf("stats = %+v; want no deadline sheds, one abandoned", st.Classes[0])
	}
	relHold()
}

func TestCancelWhileQueuedFreesTheQueueSlot(t *testing.T) {
	s := New(Config{Slots: 1})
	relHold, err := s.Acquire(context.Background(), Batch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Batch)
		errc <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return s.Stats().Classes[1].Depth == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	st := s.Stats()
	if st.Classes[1].Depth != 0 || st.Classes[1].Abandoned != 1 {
		t.Fatalf("after cancel: %+v; want empty queue, one abandoned", st.Classes[1])
	}
	// The abandoned waiter must not absorb the next handoff.
	relHold()
	rel, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if st := s.Stats(); st.Busy != 0 {
		t.Fatalf("busy=%d at quiescence; want 0", st.Busy)
	}
}

// TestAcquireStress hammers the scheduler from many goroutines with
// mixed classes, short deadlines and cancellations, then checks the
// slot accounting converged: no leaked or phantom slots. Run with
// -race; the cancellation/handoff race is the point.
func TestAcquireStress(t *testing.T) {
	s := New(Config{Slots: 4, QueueLimit: 8})
	classes := []Class{Interactive, Batch, Background}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(3))*time.Millisecond)
				rel, err := s.Acquire(ctx, classes[rng.Intn(len(classes))])
				if err == nil {
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					}
					rel()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Busy != 0 || st.Queued != 0 {
		t.Fatalf("at quiescence: busy=%d queued=%d; want 0/0", st.Busy, st.Queued)
	}
	rel, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatalf("scheduler wedged after stress: %v", err)
	}
	rel()
}

func TestStatsSnapshotConsistency(t *testing.T) {
	s := New(Config{Slots: 2})
	rel, err := s.Acquire(context.Background(), Batch)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Slots != 2 || st.Busy != 1 {
		t.Fatalf("stats = %+v; want slots=2 busy=1", st)
	}
	if st.Classes[1].Class != Batch || st.Classes[1].Weight != DefaultBatchWeight {
		t.Fatalf("batch row = %+v", st.Classes[1])
	}
	rel()
	if got := s.Stats().AvgService; got <= 0 {
		t.Fatalf("AvgService=%v after a release; want > 0", got)
	}
}
