// Package sched is the engine's admission-controlled request scheduler:
// a fixed pool of worker slots handed out across weighted priority
// classes (interactive / batch / background) from bounded per-class FIFO
// queues. It replaces the flat worker-token channel the engine, pool,
// race and ssyncd layers used to share, where a burst of slow batch work
// (portfolio entrants, experiment grids) could starve cheap interactive
// compiles and overload was only discovered by client timeout. The
// scheduler makes both failure modes explicit: queues are bounded and
// shed arrivals with a structured *QueueFullError, and arrivals whose
// queue-wait estimate already exceeds their context deadline are
// rejected immediately with a *DeadlineError instead of timing out after
// consuming a queue slot. Slot handoff between classes uses smooth
// weighted round-robin, so a saturating flood of low-priority work still
// yields the very next released slot to a newly arrived
// higher-priority request, while queued low-priority work keeps its
// proportional share and can never be starved outright.
package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ssync/internal/obs"
)

// Class names a priority class. The zero value ("") resolves to
// Interactive, so plain requests that never mention priorities keep
// their current latency class.
type Class string

// The built-in priority classes, highest service share first.
const (
	// Interactive is the latency-sensitive default: single compiles from
	// a human or a request/response service path.
	Interactive Class = "interactive"
	// Batch is throughput work that tolerates queueing: pool batches and
	// portfolio race entrants submit at this class.
	Batch Class = "batch"
	// Background is best-effort work (prefetch, warmup, sweeps) that
	// should only consume slots nothing else wants.
	Background Class = "background"
)

// Classes lists the built-in classes in canonical (descending-weight)
// order; Stats reports per-class counters in this order.
var Classes = [NumClasses]Class{Interactive, Batch, Background}

// NumClasses is the number of built-in priority classes.
const NumClasses = 3

// ParseClass resolves a wire/request class name; "" resolves to
// Interactive. Unknown names fail so a typo cannot silently demote (or
// promote) a request.
func ParseClass(s string) (Class, error) {
	if i, ok := Class(s).index(); ok {
		return Classes[i], nil
	}
	return "", fmt.Errorf("sched: unknown priority class %q (want %s, %s or %s)",
		s, Interactive, Batch, Background)
}

// Rank returns a class's position in the canonical strongest-first
// order (0 = interactive; "" resolves to interactive). ok is false for
// unknown class names.
func Rank(c Class) (int, bool) { return c.index() }

// Weaker returns the weaker (lower-priority) of two classes — how a
// quota cap combines with a requested class: the request runs at
// whichever is worse. An unknown class name yields the other operand
// (ParseClass is where unknown names are rejected; Weaker only orders).
func Weaker(a, b Class) Class {
	ai, aok := a.index()
	bi, bok := b.index()
	switch {
	case !aok:
		return b
	case !bok:
		return a
	case bi > ai:
		return Classes[bi]
	default:
		return Classes[ai]
	}
}

// index maps a class to its slot in the per-class arrays — the single
// place class names are resolved (ParseClass and every per-class lookup
// derive from it, so adding a class means extending Classes and
// classWeights only).
func (c Class) index() (int, bool) {
	if c == "" {
		return 0, true // zero value: Interactive
	}
	for i, cc := range Classes {
		if c == cc {
			return i, true
		}
	}
	return 0, false
}

// Config configures a Scheduler.
type Config struct {
	// Slots is the number of worker slots — the maximum number of
	// concurrently held Acquires. Must be positive.
	Slots int
	// QueueLimit bounds each class's wait queue: arrivals beyond it are
	// shed with *QueueFullError. 0 selects DefaultQueueLimit; negative
	// means unbounded (load shedding by deadline only).
	QueueLimit int
}

// Per-class weights, each class's share of slot handoffs while other
// classes are also queued (smooth weighted round-robin): a queued
// interactive request wins ~4 slot handoffs for every batch one and ~16
// for every background one, which keeps interactive latency flat under
// a saturating flood while the flood still drains at a bounded rate.
// Each weight deliberately exceeds the sum of all lower-class weights —
// that dominance (together with handoffLocked zeroing drained classes'
// credits) is what makes a fresh higher-class arrival win the very next
// handoff no matter what credit state the flood has accumulated.
const (
	DefaultInteractiveWeight = 16
	DefaultBatchWeight       = 4
	DefaultBackgroundWeight  = 1
)

// DefaultQueueLimit is the per-class queue bound used when
// Config.QueueLimit is zero.
const DefaultQueueLimit = 256

// classWeights holds the weights index-aligned with Classes.
var classWeights = [NumClasses]int{
	DefaultInteractiveWeight, DefaultBatchWeight, DefaultBackgroundWeight,
}

// waiter is one queued Acquire.
type waiter struct {
	// grant is closed when the scheduler hands the waiter a slot.
	grant chan struct{}
	// enqueued is the queue-entry time, for wait-time stats.
	enqueued time.Time
	// granted marks that a slot was handed over (set under the
	// scheduler's mutex before grant closes); a cancelled waiter that
	// finds it set owns a slot it must give back.
	granted bool
}

// classState is one class's queue, WRR credit and counters; guarded by
// the scheduler's mutex.
type classState struct {
	queue  []*waiter
	credit int

	admitted      uint64
	shedQueueFull uint64
	shedDeadline  uint64
	abandoned     uint64
	waited        uint64
	totalWait     time.Duration
	maxWait       time.Duration
}

// principalCounters is one principal's slice of the scheduler's
// admission accounting; guarded by the scheduler's mutex. The name
// comes off the request context (obs.PrincipalName), so accounting
// works wherever the auth layer attributed the request, without sched
// depending on the auth package.
type principalCounters struct {
	admitted uint64
	shed     uint64
	inflight int
}

// maxPrincipals defensively bounds the per-principal accounting map;
// names past the cap share one "overflow" bucket. Real principal names
// come from a keys file, far below this.
const maxPrincipals = 1024

// overflowPrincipal is the shared accounting bucket for principal names
// past maxPrincipals.
const overflowPrincipal = "overflow"

// Scheduler hands a fixed budget of worker slots out across weighted
// priority classes with bounded queues and deadline-aware admission. It
// is safe for concurrent use.
type Scheduler struct {
	mu         sync.Mutex
	slots      int
	queueLimit int // per class; negative: unbounded
	busy       int
	classes    [NumClasses]classState
	principals map[string]*principalCounters
	// avgService is an EWMA of observed slot-hold durations, the basis of
	// queue-wait estimates; zero until the first release (no estimate →
	// no deadline shedding, so a cold scheduler never rejects on a guess).
	avgService time.Duration
}

// New returns a scheduler with cfg.Slots worker slots. It panics on a
// non-positive slot count — a schedulerless (unbounded) engine simply
// has no Scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Slots <= 0 {
		panic("sched: New needs a positive slot count")
	}
	s := &Scheduler{
		slots:      cfg.Slots,
		queueLimit: cfg.QueueLimit,
		principals: make(map[string]*principalCounters),
	}
	if s.queueLimit == 0 {
		s.queueLimit = DefaultQueueLimit
	}
	return s
}

// Acquire obtains one worker slot for a request of the given class,
// waiting in the class's queue when all slots are busy. It returns a
// release function that must be called exactly once when the slot's
// work finishes (calling it again is a no-op).
//
// Admission control runs on arrival: a full class queue sheds the
// request with *QueueFullError, and when ctx carries a deadline that the
// current queue-wait estimate already overruns, the request is shed with
// *DeadlineError instead of queueing doomed work. Both unwrap to their
// sentinels (ErrQueueFull, ErrDeadline) and carry a retry hint
// (RetryAfter). Cancellation while queued returns ctx.Err(); a slot
// granted concurrently with cancellation is handed back, never leaked.
// A grant that had to queue records its wait as a "sched.queue" span on
// ctx's trace; shed decisions are logged at debug level through ctx's
// logger.
func (s *Scheduler) Acquire(ctx context.Context, class Class) (release func(), err error) {
	idx, ok := class.index()
	if !ok {
		return nil, fmt.Errorf("sched: unknown priority class %q", class)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	principal := obs.PrincipalName(ctx)
	s.mu.Lock()
	c := &s.classes[idx]
	if s.busy < s.slots {
		s.busy++
		c.admitted++
		s.admitPrincipalLocked(principal)
		s.mu.Unlock()
		return s.releaseFunc(principal), nil
	}
	// All slots busy: admission control, then queue. The queue-full
	// retry hint estimates one same-class handoff — when queue room
	// next opens — not a full drain, so well-behaved clients honouring
	// Retry-After refill the queue instead of leaving slots idle.
	if s.queueLimit >= 0 && len(c.queue) >= s.queueLimit {
		c.shedQueueFull++
		s.shedPrincipalLocked(principal)
		err := &QueueFullError{Class: Classes[idx], Limit: s.queueLimit, Retry: s.waitLocked(idx, 1)}
		s.mu.Unlock()
		obs.Logger(ctx).Debug("sched: shed, queue full",
			"class", string(Classes[idx]), "limit", err.Limit, "retry", err.Retry)
		return nil, err
	}
	if dl, hasDL := ctx.Deadline(); hasDL && s.avgService > 0 {
		estimate := s.estimateLocked(idx)
		if remaining := time.Until(dl); estimate > remaining {
			c.shedDeadline++
			s.shedPrincipalLocked(principal)
			err := &DeadlineError{Class: Classes[idx], Estimate: estimate, Remaining: remaining, Retry: estimate}
			s.mu.Unlock()
			obs.Logger(ctx).Debug("sched: shed, deadline unmeetable",
				"class", string(Classes[idx]), "estimate", estimate, "remaining", remaining)
			return nil, err
		}
	}
	w := &waiter{grant: make(chan struct{}), enqueued: time.Now()}
	c.queue = append(c.queue, w)
	s.mu.Unlock()

	select {
	case <-w.grant:
		// Admitted is counted here — on acceptance, not on handoff — so
		// a grant that races a cancellation below is recorded as
		// abandoned, never as a phantom admission.
		s.mu.Lock()
		c.admitted++
		s.admitPrincipalLocked(principal)
		s.mu.Unlock()
		obs.TraceFrom(ctx).Record("", obs.SpanID(ctx), "sched.queue",
			w.enqueued, time.Since(w.enqueued),
			map[string]string{"class": string(Classes[idx])})
		return s.releaseFunc(principal), nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// The handoff raced our cancellation: the slot is ours, give
			// it back (to the next waiter, or to the free pool).
			s.handoffLocked()
		} else {
			for i, qw := range c.queue {
				if qw == w {
					c.queue = append(c.queue[:i], c.queue[i+1:]...)
					break
				}
			}
		}
		c.abandoned++
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// releaseFunc builds the idempotent slot-release closure handed to a
// successful Acquire. The slot-hold duration feeds the service-time EWMA
// behind queue-wait estimates; the principal name (captured at
// admission, "" for unattributed requests) has its in-flight gauge
// returned.
func (s *Scheduler) releaseFunc(principal string) func() {
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.observeServiceLocked(time.Since(start))
			if pc := s.principalLocked(principal); pc != nil && pc.inflight > 0 {
				pc.inflight--
			}
			s.handoffLocked()
			s.mu.Unlock()
		})
	}
}

// principalLocked returns the accounting bucket for a principal name
// ("" — an unattributed request — has none), creating it up to the
// cardinality cap and folding the excess into the overflow bucket.
func (s *Scheduler) principalLocked(name string) *principalCounters {
	if name == "" {
		return nil
	}
	if pc, ok := s.principals[name]; ok {
		return pc
	}
	if len(s.principals) >= maxPrincipals {
		name = overflowPrincipal
		if pc, ok := s.principals[name]; ok {
			return pc
		}
	}
	pc := &principalCounters{}
	s.principals[name] = pc
	return pc
}

// admitPrincipalLocked records one admission for the principal.
func (s *Scheduler) admitPrincipalLocked(name string) {
	if pc := s.principalLocked(name); pc != nil {
		pc.admitted++
		pc.inflight++
	}
}

// shedPrincipalLocked records one shed for the principal.
func (s *Scheduler) shedPrincipalLocked(name string) {
	if pc := s.principalLocked(name); pc != nil {
		pc.shed++
	}
}

// handoffLocked moves one freed slot to the next waiter, chosen by
// smooth weighted round-robin over the non-empty classes: every
// non-empty class's credit grows by its weight, the richest class wins
// the slot and pays the total stake. Ties break in canonical class
// order (interactive first). Classes with an empty queue have their
// credit zeroed at every handoff — a drained class must not bank a
// lose-streak claim (or carry a served-debt) across its idle period, or
// a later arrival would be mis-ranked against the steady flood.
// Because every default weight exceeds the sum of all lower-class
// weights (16 > 4+1, 4 > 1) and a backlogged class's post-stake credit
// stays below the backlogged total, a freshly arrived higher-class
// waiter always wins the very next handoff against any flood of lower
// classes, while the flood keeps its proportional share of subsequent
// handoffs. With no waiters the slot returns to the free pool.
func (s *Scheduler) handoffLocked() {
	best, total := -1, 0
	for i := range s.classes {
		c := &s.classes[i]
		if len(c.queue) == 0 {
			c.credit = 0
			continue
		}
		c.credit += classWeights[i]
		total += classWeights[i]
		if best < 0 || c.credit > s.classes[best].credit {
			best = i
		}
	}
	if best < 0 {
		s.busy--
		return
	}
	c := &s.classes[best]
	c.credit -= total
	w := c.queue[0]
	c.queue = c.queue[1:]
	// Queue-time telemetry is recorded at handoff — the wait really
	// happened even if the waiter turns out to have been cancelled
	// concurrently; Admitted is the waiter's to count on acceptance.
	wait := time.Since(w.enqueued)
	c.waited++
	c.totalWait += wait
	if wait > c.maxWait {
		c.maxWait = wait
	}
	w.granted = true
	close(w.grant)
}

// estimateLocked estimates how long a new arrival of class idx would
// wait for a slot: its queue position — same-class requests ahead of it,
// plus the share of other classes' queues the weighted round-robin
// would serve in between — times the pace of slot releases (one every
// avgService/slots in steady state). Zero until the first release has
// seeded the service-time EWMA.
func (s *Scheduler) estimateLocked(idx int) time.Duration {
	return s.waitLocked(idx, len(s.classes[idx].queue)+1)
}

// waitLocked estimates the time until the class's n-th same-class
// handoff from now: n plus the cross-class shares the weighted
// round-robin serves in between, times the slot-release pace. n=1 is
// "when does this class next get a slot (or queue room)"; n=depth+1 is
// a new arrival's start estimate.
func (s *Scheduler) waitLocked(idx, n int) time.Duration {
	if s.avgService <= 0 {
		return 0
	}
	ahead := n
	for i := range s.classes {
		if i == idx {
			continue
		}
		o := &s.classes[i]
		// While ahead same-class requests drain, class i wins about
		// ahead*weight_i/weight_c handoffs — but never more than it has
		// queued. Round the share down: a high-weight arrival against
		// low-weight queues really does win the next handoff, and an
		// optimistic estimate merely queues a borderline request (which
		// then fails by its own deadline) where a pessimistic one would
		// spuriously shed it with 503.
		share := ahead * classWeights[i] / classWeights[idx]
		if share > len(o.queue) {
			share = len(o.queue)
		}
		ahead += share
	}
	return time.Duration(ahead) * s.avgService / time.Duration(s.slots)
}

// observeServiceLocked folds one observed slot-hold duration into the
// service-time EWMA (α = 1/8; the first observation seeds it).
func (s *Scheduler) observeServiceLocked(d time.Duration) {
	if d < 0 {
		return
	}
	if s.avgService == 0 {
		s.avgService = d
		return
	}
	s.avgService += (d - s.avgService) / 8
}
