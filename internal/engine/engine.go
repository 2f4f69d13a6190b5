// Package engine is the concurrent compilation layer on top of the
// S-SYNC compiler stack: a request-oriented compilation API (Request →
// Response via Engine.Do) that runs every request as a pass pipeline
// (internal/pass; a built-in compiler name is a canned one), a
// worker-pool batch compiler (Pool), a tiered content-addressed result
// cache keyed by the canonical form of each request (Key), single-flight
// coalescing of identical in-flight requests, and portfolio racing
// (Race) that runs several strategies for one circuit concurrently and
// keeps the best schedule. It exists so
// that services handling many compilation requests — the experiment
// grids in internal/exp, cmd/ssyncd, or any embedding — can saturate the
// machine and skip recompiling identical requests entirely.
package engine

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssync/internal/auth"
	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/mapping"
	"ssync/internal/obs"
	"ssync/internal/pass"
	"ssync/internal/qasm"
	"ssync/internal/sched"
	"ssync/internal/sim"
	"ssync/internal/store"
)

// Request is one compilation request: a circuit, a device, a compiler
// name or pass pipeline, and optional configuration. It is the single
// input type of the compilation API — Engine.Do, Pool.RunRequests and
// Engine.Race all consume it.
type Request struct {
	// Label is an optional caller tag carried through to the response.
	Label string
	// Circuit is the program to schedule. The engine never mutates it.
	Circuit *circuit.Circuit
	// Topo is the target device.
	Topo *device.Topology
	// Compiler names a built-in compiler ("murali", "dai", "ssync" or
	// "ssync-annealed"); "" selects "ssync". Unknown names fail with
	// *UnknownCompilerError. Each name is a canned pass pipeline;
	// requests wanting another stage composition, or a strategy of their
	// own (a registered pass), set Pipeline instead.
	Compiler string
	// Pipeline, when non-empty, compiles through an explicit staged
	// pipeline instead of a named compiler: each Spec addresses the
	// process-wide pass registry (pass.Register) with opaque JSON
	// options. Mutually exclusive with Compiler. A built-in compiler
	// name and its canned pipeline (pass.BuiltinPipeline) are the same
	// compilation — identical passes, identical cache key — so the two
	// request forms coalesce and share cached results.
	Pipeline []pass.Spec
	// Config tunes the S-SYNC scheduler family; nil means
	// core.DefaultConfig(). The baselines ignore it.
	Config *core.Config
	// Anneal tunes the simulated-annealing mapper of the "ssync-annealed"
	// compiler; nil means mapping.DefaultAnnealConfig(), whose fixed Seed
	// keeps the result — and the cache key — deterministic. Other built-in
	// compilers ignore it.
	Anneal *mapping.AnnealConfig
	// Timeout bounds this request end to end inside Engine.Do — queueing
	// for a worker slot, waiting on a coalesced identical in-flight
	// compilation, and the compilation itself; 0 falls back to the pool's
	// default (or no limit when executed directly).
	Timeout time.Duration
	// Priority is the request's scheduling class ("interactive", "batch",
	// "background"); the zero value resolves to sched.Interactive. On a
	// worker-bounded engine the admission scheduler queues cache misses
	// per class and hands freed slots out by class weight, so a flood of
	// batch work cannot starve interactive requests. Priority is not part
	// of the cache key: identical circuits at different priorities share
	// cached results and coalesce into one in-flight compilation. One
	// consequence: a follower that coalesces onto an *identical* request
	// whose lower-class leader is still queued for a slot advances at
	// the leader's class weight, not its own (bounded by the follower's
	// own deadline; a queued leader does not inherit a follower's
	// priority). Distinct requests never share this fate.
	Priority sched.Class
	// Deadline, when non-zero, is the absolute completion deadline. It
	// folds into the request context alongside Timeout (whichever expires
	// first wins) and drives deadline-aware admission: a request whose
	// queue-wait estimate already exceeds the deadline is shed on arrival
	// with sched.ErrDeadline instead of queueing doomed work. Like
	// Priority, it never enters the cache key, and a coalesced follower
	// keeps its own deadline — attaching to a longer-budget in-flight
	// leader never weakens it.
	Deadline time.Time
}

// Response is one compilation outcome. Exactly one of Result and Err is
// set. Result may be shared with the cache and other callers: treat it
// as read-only.
type Response struct {
	// Label echoes Request.Label.
	Label string
	// Compiler is the resolved compiler name that handled the request
	// ("" in the request resolves to "ssync" here). Requests compiled
	// through an explicit Pipeline have no compiler name; Pipeline
	// identifies them instead.
	Compiler string
	// Pipeline lists the executed pipeline's pass names in stage order:
	// the canned expansion for built-in compiler names, the request's
	// explicit pipeline otherwise.
	Pipeline []string
	// Key is the request's content address (zero on cacheless engines,
	// which skip content addressing).
	Key Key
	// Result is the compilation output.
	Result *core.Result
	// Err is the failure, if any.
	Err error
	// CacheHit reports that Result came from the finished-result cache.
	CacheHit bool
	// CacheTier names the tier that served a cache hit: "memory" for the
	// LRU front, "disk" for the persistent tier (after which the result
	// is promoted to memory). Empty when CacheHit is false.
	CacheTier string
	// Coalesced reports that this request attached to an identical
	// in-flight compilation instead of running its own.
	Coalesced bool
}

// Stats is a point-in-time snapshot of engine counters — the single
// consistent view services read (ssyncd renders /v2/stats from one
// Stats call, and each tiered store snapshots its counters under one
// lock, so no reader can observe torn per-tier values).
type Stats struct {
	// Compiled counts compilations actually executed (cache misses that
	// ran to completion, successfully or not). A pipeline resumed from a
	// cached stage prefix still counts as one compilation.
	Compiled uint64
	// Coalesced counts requests served by attaching to an identical
	// in-flight compilation (single-flight joins).
	Coalesced uint64
	// Errors counts requests that finished with a non-nil error.
	Errors uint64
	// Cache is the classic result-cache view with both tiers folded
	// together (a hit is a hit whether memory or disk served it).
	Cache CacheStats
	// Results breaks the finished-result cache down per tier.
	Results store.TieredStats
	// Stages counts the per-stage snapshot cache, which lives in memory
	// only (its disk fields stay zero); zero unless
	// Options.StageCacheSize enabled it.
	Stages store.TieredStats
	// Passes aggregates pipeline stages by pass name: how often each
	// pass ran, its cumulative wall time, and how often its execution
	// was skipped by restoring a cached stage prefix. Whole-result cache
	// hits and coalesced waiters do not count at all — only compilations
	// that actually executed contribute, mirroring Compiled.
	Passes map[string]PassStats
	// Sched is the admission scheduler's snapshot — slot occupancy,
	// per-class queue depths, wait times and admitted/shed counts — taken
	// in the same Stats call as every other section; nil on unbounded
	// engines (Options.Workers <= 0), which have no scheduler.
	Sched *sched.Stats
	// Sim is the state-vector simulator's process-wide snapshot: the
	// gate-application count and the shared verification-reference
	// cache behind verify-statevec.
	Sim sim.Stats
}

// PassStats aggregates one pass's executions engine-wide.
type PassStats struct {
	// Runs counts executions of the pass across all compiled pipelines.
	Runs uint64
	// Total is the cumulative wall time across those runs.
	Total time.Duration
	// CacheHits counts executions skipped because the pass's stage was
	// part of a restored pipeline prefix (per-stage caching).
	CacheHits uint64
}

// Options configures a new Engine.
type Options struct {
	// CacheSize bounds the result cache's in-memory tier: 0 selects
	// DefaultCacheSize, negative disables caching entirely. A cacheless
	// engine also skips content addressing, and with it single-flight
	// coalescing, the stage cache and the disk tier.
	CacheSize int
	// StageCacheSize, when positive, enables per-stage prefix caching
	// in memory, holding up to that many pipeline snapshots: the runner
	// snapshots the pipeline State at stage boundaries and resumes later
	// pipelines from the longest cached prefix, so e.g. a
	// decompose→place prefix is computed once and reused verbatim across
	// every route variant. Snapshots never go to disk. <= 0 disables
	// (per-stage caching is opt-in; results are identical either way,
	// only work and timings change).
	StageCacheSize int
	// CacheDir, when non-empty, attaches a persistent on-disk tier under
	// that directory: finished results (only) are written as crash-safe
	// content-addressed blobs, so a restarted engine serves previously
	// compiled requests without re-running any pass. Without SharedCache
	// the directory must belong to one live engine at a time —
	// concurrent engines over one directory make each other's evictions
	// read as corrupt-blob misses and let the combined footprint exceed
	// DiskMax (results stay correct; the cache churns). Use Open to
	// surface directory errors; New panics on them. Ignored by cacheless
	// engines.
	CacheDir string
	// DiskMax bounds the disk tier's total bytes, evicting least
	// recently accessed blobs first: 0 selects DefaultDiskMax, negative
	// means unbounded.
	DiskMax int64
	// SharedCache opens CacheDir as a cross-process shared tier
	// (store.OpenDiskShared): advisory per-blob file locks plus an
	// eviction lease let N engine processes — replica daemons behind a
	// cluster router — mount one directory safely, so a request compiled
	// by one replica is a disk hit on every other. In shared mode DiskMax
	// caps the directory's combined footprint, not this engine's share.
	// Ignored without CacheDir.
	SharedCache bool
	// Workers, when positive, bounds concurrent *compilations*
	// engine-wide through the admission scheduler (internal/sched):
	// cache misses acquire a worker slot in their Request.Priority class,
	// queued per class and handed freed slots by class weight, while
	// cache hits and coalesced waiters pass without a slot — they do no
	// compilation work — so a thundering herd of identical requests
	// cannot starve unrelated traffic out of the worker budget. <= 0
	// means unbounded: no scheduler, no admission control.
	Workers int
	// QueueLimit bounds each priority class's admission queue on a
	// worker-bounded engine: arrivals beyond it are shed with
	// sched.ErrQueueFull instead of queueing without bound. 0 selects
	// sched.DefaultQueueLimit; negative means unbounded queues (shedding
	// by deadline only). Ignored when Workers <= 0.
	QueueLimit int
}

// DefaultCacheSize is the result-cache bound used when Options.CacheSize
// is zero.
const DefaultCacheSize = 512

// DefaultStageCacheSize is the stage-cache bound services enable by
// default (ssyncd's -stage-cache flag); Options.StageCacheSize itself
// defaults to off.
const DefaultStageCacheSize = 1024

// DefaultDiskMax is the disk-tier byte cap used when Options.DiskMax is
// zero.
const DefaultDiskMax int64 = 256 << 20

// Engine compiles requests with content-addressed result reuse (tiered:
// in-memory LRU over an optional persistent disk tier), per-stage
// pipeline prefix reuse, and single-flight coalescing of identical
// in-flight requests. It is safe for concurrent use by multiple
// goroutines.
type Engine struct {
	// results is the finished-result cache; nil when caching is disabled.
	results *store.Tiered[*core.Result]
	// stages caches pipeline States at stage boundaries in memory, keyed
	// by prefix (prefixKeys); nil unless Options.StageCacheSize enabled
	// it.
	stages *store.Tiered[*snapshot]
	// sched admission-controls compilations when Options.Workers > 0:
	// only actual compiler executions hold a slot, acquired in the
	// request's priority class. Nil on unbounded engines.
	sched     *sched.Scheduler
	flights   flightGroup
	compiled  atomic.Uint64
	coalesced atomic.Uint64
	errors    atomic.Uint64
	// passMu guards passStats, the per-pass aggregation of executed
	// pipeline stages.
	passMu    sync.Mutex
	passStats map[string]PassStats
	// afterMiss, when set, runs between a result-cache miss and the
	// flight that follows it. Test hook.
	afterMiss func()
}

// Open returns an engine with the given options, surfacing disk-tier
// errors (unwritable Options.CacheDir and the like). Engines without a
// CacheDir cannot fail; New is the error-free constructor for them.
func Open(opt Options) (*Engine, error) {
	e := &Engine{passStats: make(map[string]PassStats)}
	if opt.Workers > 0 {
		e.sched = sched.New(sched.Config{Slots: opt.Workers, QueueLimit: opt.QueueLimit})
	}
	if opt.CacheSize < 0 {
		return e, nil // cacheless: no content addressing, stages or disk
	}
	size := opt.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	var disk *store.Disk
	if opt.CacheDir != "" {
		max := opt.DiskMax
		switch {
		case max == 0:
			max = DefaultDiskMax
		case max < 0:
			max = 0 // store: unbounded
		}
		open := store.OpenDisk
		if opt.SharedCache {
			open = store.OpenDiskShared
		}
		var err error
		if disk, err = open(opt.CacheDir, max); err != nil {
			return nil, err
		}
	}
	e.results = store.NewTiered[*core.Result](size, disk)
	if opt.StageCacheSize > 0 {
		e.stages = store.NewTiered[*snapshot](opt.StageCacheSize, nil)
	}
	return e, nil
}

// New returns an engine with the given options, panicking on disk-tier
// open errors (only possible with Options.CacheDir set — services
// wanting to handle those use Open).
func New(opt Options) *Engine {
	e, err := Open(opt)
	if err != nil {
		panic(err)
	}
	return e
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Compiled:  e.compiled.Load(),
		Coalesced: e.coalesced.Load(),
		Errors:    e.errors.Load(),
	}
	if e.results != nil {
		s.Results = e.results.Stats()
		s.Cache = CacheStats{
			Hits:      s.Results.MemHits + s.Results.DiskHits,
			Misses:    s.Results.Misses,
			Evictions: s.Results.Mem.Evictions,
			Entries:   s.Results.Mem.Entries,
			Capacity:  s.Results.Mem.Capacity,
		}
	}
	if e.stages != nil {
		s.Stages = e.stages.Stats()
	}
	if e.sched != nil {
		ss := e.sched.Stats()
		s.Sched = &ss
	}
	e.passMu.Lock()
	if len(e.passStats) > 0 {
		s.Passes = make(map[string]PassStats, len(e.passStats))
		for name, ps := range e.passStats {
			s.Passes[name] = ps
		}
	}
	e.passMu.Unlock()
	s.Sim = sim.Snapshot()
	return s
}

// recordPasses folds one compilation's *executed* per-pass timings into
// the engine-wide aggregation (stages skipped via a restored prefix are
// recorded by recordStageHits instead).
func (e *Engine) recordPasses(timings []core.PassTiming) {
	if len(timings) == 0 {
		return
	}
	e.passMu.Lock()
	if e.passStats == nil {
		e.passStats = make(map[string]PassStats)
	}
	for _, t := range timings {
		ps := e.passStats[t.Pass]
		ps.Runs++
		ps.Total += t.Duration
		e.passStats[t.Pass] = ps
	}
	e.passMu.Unlock()
}

// recordStageHits counts stages whose execution was skipped because a
// cached pipeline prefix covered them.
func (e *Engine) recordStageHits(names []string) {
	if len(names) == 0 {
		return
	}
	e.passMu.Lock()
	if e.passStats == nil {
		e.passStats = make(map[string]PassStats)
	}
	for _, n := range names {
		ps := e.passStats[n]
		ps.CacheHits++
		e.passStats[n] = ps
	}
	e.passMu.Unlock()
}

// Do handles one compilation request: it resolves the execution plan —
// an explicit pass pipeline or a built-in compiler name's canned
// pipeline — consults the finished-result cache, attaches to an
// identical in-flight compilation when one exists (single-flight), and
// otherwise compiles. Cancellation of ctx or expiry of the request's
// timeout interrupts the compilation cooperatively — passes poll the
// context — so when Do returns, no work is still running on this
// request's behalf and failed results are never cached.
func (e *Engine) Do(ctx context.Context, req Request) Response {
	out := Response{Label: req.Label}
	if req.Circuit == nil || req.Topo == nil {
		out.Err = fmt.Errorf("engine: request %q needs both a circuit and a topology", req.Label)
		e.errors.Add(1)
		return out
	}
	// Resolve up front so the Compiled counter only ever counts real
	// compiler executions and unknown names fail as structured errors.
	x, err := resolveExec(req)
	out.Compiler, out.Pipeline = x.compiler, x.names
	if err != nil {
		out.Err = err
		e.errors.Add(1)
		return out
	}
	// An unknown priority class is a malformed request, not a scheduling
	// outcome — fail it before any cache or queue work, bounded or not,
	// so the same request cannot succeed on an unbounded engine and fail
	// on a bounded one.
	if _, err := sched.ParseClass(string(req.Priority)); err != nil {
		out.Err = err
		e.errors.Add(1)
		return out
	}
	// Clamp the class to any principal cap or quota grant the context
	// carries. Enforcing it here — not only at the HTTP edge — means a
	// principal's MaxClass holds for embedders too, and a cache hit still
	// never pays an admission (the clamp only matters when compile
	// acquires a slot).
	req.Priority = auth.Clamp(ctx, req.Priority)
	// The request timeout and absolute deadline bound everything Do does
	// on the request's behalf — queueing for a worker slot, waiting on a
	// coalesced in-flight compilation, and compiling — so a
	// short-deadline request that attaches to a long-running identical
	// flight still fails by its own budget, not the leader's. Whichever
	// of the two expires first wins.
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	if !req.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.Deadline)
		defer cancel()
	}
	// Tracing and request-scoped logging are opt-in through the context
	// (obs.WithTrace / obs.WithLogger, attached by ssyncd's edge); both
	// degrade to no-ops on a bare context. Spans land in the caller's
	// trace, which the caller already holds.
	tr := obs.TraceFrom(ctx)
	log := obs.Logger(ctx)
	// Content addressing costs a full canonical render + hash per
	// request, so it is skipped entirely on cacheless engines; Key stays
	// zero there and coalescing (which is keyed) is skipped with it.
	if e.results == nil {
		out.Result, out.Err = e.compile(ctx, x, req, "")
		if out.Err != nil {
			e.errors.Add(1)
		}
		return out
	}
	// The canonical QASM render is the expensive shared ingredient of the
	// request key and every stage-prefix key; render it exactly once.
	qasmText := qasm.Write(req.Circuit)
	key, err := execKey(req, x, qasmText)
	if err != nil {
		out.Err = err
		e.errors.Add(1)
		return out
	}
	out.Key = key
	probeStart := time.Now()
	probeCtx := ctx
	var probeID string
	if tr != nil {
		// Pre-mint the probe span's ID so the disk tier can parent its
		// I/O span under it before the probe span itself is recorded.
		probeID = tr.NewSpanID()
		probeCtx = obs.WithSpan(ctx, probeID)
	}
	res, tier, ok := e.results.Get(probeCtx, store.Key(key), func(blob []byte) (*core.Result, error) {
		return decodeResult(blob, req.Topo)
	})
	if tr != nil {
		tierAttr := tier.String()
		if tierAttr == "" {
			tierAttr = "miss"
		}
		tr.Record(probeID, obs.SpanID(ctx), "cache.results", probeStart, time.Since(probeStart),
			map[string]string{"tier": tierAttr})
	}
	if ok {
		out.Result, out.CacheHit = res, true
		out.CacheTier = tier.String()
		log.Debug("engine: result cache hit", "key", key.String(), "tier", out.CacheTier)
		return out
	}
	if err := ctx.Err(); err != nil {
		out.Err = err
		e.errors.Add(1)
		return out
	}
	if e.afterMiss != nil {
		e.afterMiss()
	}
	// The leader caches its result inside the flight (before the flight
	// is deregistered), and a new leader re-checks the memory tier
	// before compiling, so a key is compiled once even when its previous
	// flight landed between this request's probe and its flight.
	flightStart := time.Now()
	rechecked := false
	out.Result, out.Err, out.Coalesced = e.flights.do(ctx, key, func() (*core.Result, error) {
		if res, ok := e.results.Recheck(store.Key(key)); ok {
			rechecked = true
			return res, nil
		}
		res, err := e.compile(ctx, x, req, qasmText)
		if err == nil {
			e.results.Put(ctx, store.Key(key), res, encodeResult)
		}
		return res, err
	})
	if rechecked {
		out.CacheHit, out.CacheTier = true, store.TierMemory.String()
		log.Debug("engine: result cache hit", "key", key.String(), "tier", out.CacheTier)
	}
	if out.Coalesced {
		e.coalesced.Add(1)
		// The follower's own span and log line: it waited on an identical
		// in-flight compilation under its own trace, it did not run the
		// leader's passes.
		tr.Child(obs.SpanID(ctx), "coalesce.wait", flightStart, time.Since(flightStart))
		log.Debug("engine: coalesced onto identical in-flight request",
			"key", key.String(), "wait_ms", float64(time.Since(flightStart))/float64(time.Millisecond))
	}
	if out.Err != nil {
		e.errors.Add(1)
	}
	return out
}

// compile acquires a worker slot through the admission scheduler (when
// the engine is bounded) and runs the resolved plan under ctx, which Do
// has already scoped to the request timeout and deadline. The slot is
// acquired in the request's priority class; admission control may shed
// the request here with sched.ErrQueueFull or sched.ErrDeadline, which
// propagate as this compilation's structured error (services map them
// to 429/503). Pipeline executions go through the stage cache when one
// is configured — resuming from the longest cached prefix and
// publishing snapshots at newly executed boundaries. Passes are
// cooperatively cancellable, so this runs on the calling goroutine and
// holds it until compilation really stops.
func (e *Engine) compile(ctx context.Context, x exec, req Request, qasmText string) (*core.Result, error) {
	tr := obs.TraceFrom(ctx)
	if tr != nil {
		// The compile span encloses admission, stage-cache probes and
		// every pass; re-pointing the context span at it makes it the
		// parent those layers record under. The deferred Record captures
		// the original parent before the re-point.
		compileStart := time.Now()
		compileID := tr.NewSpanID()
		parent := obs.SpanID(ctx)
		defer func() {
			tr.Record(compileID, parent, "compile", compileStart, time.Since(compileStart),
				map[string]string{"class": string(req.Priority)})
		}()
		ctx = obs.WithSpan(ctx, compileID)
	}
	if e.sched != nil {
		admitStart := time.Now()
		admitCtx := ctx
		var admitID string
		if tr != nil {
			// Pre-minted like the cache probe's: the scheduler's queue-wait
			// span (recorded inside Acquire) parents under the admission
			// span.
			admitID = tr.NewSpanID()
			admitCtx = obs.WithSpan(ctx, admitID)
		}
		release, err := e.sched.Acquire(admitCtx, req.Priority)
		if tr != nil {
			tr.Record(admitID, obs.SpanID(ctx), "admission", admitStart, time.Since(admitStart),
				map[string]string{"class": string(req.Priority)})
		}
		if err != nil {
			if sched.Shed(err) {
				err = fmt.Errorf("engine: request %q: %w", req.Label, err)
			}
			return nil, err
		}
		defer release()
	}
	var res *core.Result
	var executed []core.PassTiming
	var err error
	if e.stages != nil && len(x.passes) >= 2 {
		res, executed, err = e.runStaged(ctx, x, req, qasmText)
	} else {
		res, err = x.run(ctx, req)
		if res != nil {
			executed = res.PassTimings
		}
	}
	e.compiled.Add(1)
	e.recordPasses(executed)
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("engine: request %q: %w", req.Label, err)
	}
	return res, err
}

// runStaged executes a pipeline with per-stage prefix reuse: it looks
// for the longest stage prefix with a cached snapshot (longest first, so
// a cached decompose→place beats a cached decompose), restores the
// pipeline State from it, runs only the remaining stages, and publishes
// a snapshot at every newly executed boundary before routing. It returns
// the result plus the timings of the stages this call actually executed
// (the result's own PassTimings itemise the full pipeline, restored
// stages included).
func (e *Engine) runStaged(ctx context.Context, x exec, req Request, qasmText string) (*core.Result, []core.PassTiming, error) {
	// A request cancelled while queueing for its slot must not pay for
	// the prefix keys and scan below either — the between-stage checks
	// in pass.RunFrom only cover what comes after.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	chain := prefixKeys(req, x, qasmText)
	start := 0
	var st *pass.State
	var err error
	tr := obs.TraceFrom(ctx)
	scanStart := time.Now()
	scanCtx := ctx
	var scanID string
	if tr != nil {
		scanID = tr.NewSpanID()
		scanCtx = obs.WithSpan(ctx, scanID)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if snap, _, ok := e.stages.Get(scanCtx, chain[i], nil); ok {
			st, err = snap.restore(req)
			start = i + 1
			break
		}
	}
	if tr != nil {
		tr.Record(scanID, obs.SpanID(ctx), "cache.stages", scanStart, time.Since(scanStart),
			map[string]string{"restored": strconv.Itoa(start)})
	}
	if err != nil {
		return nil, nil, err
	}
	if st == nil {
		st = newState(req)
	} else {
		e.recordStageHits(x.names[:start])
		obs.Logger(ctx).Debug("engine: stage-prefix cache hit",
			"stages", start, "of", len(x.passes))
	}
	after := func(stage int, st *pass.State) {
		if stage >= len(chain) {
			return // the final boundary is the result; the result cache owns it
		}
		if snap, ok := capture(st); ok {
			e.stages.Put(ctx, chain[stage], snap, nil)
		}
	}
	res, err := pass.RunFrom(ctx, x.passes, st, start, after)
	if err != nil {
		return nil, nil, err
	}
	return res, st.Timings[start:], nil
}

// LimitAs runs fn while holding one of the engine's worker slots,
// acquired through the admission scheduler in the given priority class,
// so CPU-bound request preparation (circuit generation, QASM parsing,
// topology construction) competes for the same budget — and queues in
// the same class — as the compilation it precedes, instead of running
// unbounded on caller goroutines. Admission control applies: a full
// class queue or an unmeetable ctx deadline sheds fn un-run with a
// structured scheduler error. On an unbounded engine
// (Options.Workers <= 0) it simply runs fn. Do not call LimitAs around
// Engine.Do: compilation acquires its own slot, and holding one across
// that acquisition could deadlock a fully-loaded engine.
func (e *Engine) LimitAs(ctx context.Context, class sched.Class, fn func() error) error {
	class = auth.Clamp(ctx, class)
	if e.sched != nil {
		release, err := e.sched.Acquire(ctx, class)
		if err != nil {
			return err
		}
		defer release()
	}
	return fn()
}

// Direct is the uncached, unbounded dispatch: it resolves the request's
// execution plan (explicit or canned pipeline) and runs it on the
// calling goroutine with no engine involved. Engine.Do wraps it with
// caching, coalescing and deadlines; serial callers (and the experiment
// runners' reference path) may call it directly.
func Direct(req Request) (*core.Result, error) {
	x, err := resolveExec(req)
	if err != nil {
		return nil, err
	}
	return x.run(context.Background(), req)
}
