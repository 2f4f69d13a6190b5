package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ssync/internal/auth"
	"ssync/internal/circuit"
	"ssync/internal/cluster"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/mapping"
	"ssync/internal/obs"
	"ssync/internal/pass"
	"ssync/internal/qasm"
	"ssync/internal/sched"
	"ssync/internal/sim"
	"ssync/internal/store"
	"ssync/internal/workloads"
)

// The /v2 surface is the request schema over the engine's
// CompileRequest API: the compiler field names a built-in compiler (GET
// /v2/compilers lists them), the pipeline field composes staged
// compilations from the pass registry (GET /v2/passes lists it),
// anneal_seed parameterises the "ssync-annealed" entrant
// deterministically, and responses report single-flight coalescing plus
// per-pass timings. Every body is decoded by one set of rules
// (decodeStrict) and converted to an engine request by one function
// (engineRequest), on a replica and in the cluster router's key
// function alike.

// maxRequestBytes bounds a request body (QASM programs are text; 8 MiB is
// far beyond any Table 2 benchmark).
const maxRequestBytes = 8 << 20

// passSpec is one pipeline stage over the wire: a registered pass name
// plus its opaque options document.
type passSpec struct {
	Name string `json:"name"`
	// Options is pass-specific JSON, passed through opaquely; unknown
	// fields are rejected by the pass itself.
	Options json.RawMessage `json:"options,omitempty"`
}

// compileRequest describes one compilation over the /v2 wire. Exactly
// one of Benchmark and QASM selects the circuit; at most one of Compiler
// and Pipeline selects the strategy.
type compileRequest struct {
	// Label is echoed back unchanged; useful for correlating batch entries.
	Label string `json:"label,omitempty"`
	// Benchmark names a Table 2 workload, e.g. "QFT_24".
	Benchmark string `json:"benchmark,omitempty"`
	// QASM is an inline OpenQASM 2.0 program.
	QASM string `json:"qasm,omitempty"`
	// Topology names a device ("L-6", "G-2x3", "S-4", ...).
	Topology string `json:"topology"`
	// Capacity is the per-trap slot count; 0 selects the paper's choice.
	Capacity int `json:"capacity,omitempty"`
	// Compiler names a built-in compiler (see GET /v2/compilers); ""
	// selects "ssync". Mutually exclusive with Pipeline.
	Compiler string `json:"compiler,omitempty"`
	// Pipeline compiles through an explicit staged pipeline: each entry
	// addresses the pass registry (see GET /v2/passes). A built-in
	// compiler name and its canned pipeline are the same compilation —
	// same cache key — so either form may be used interchangeably.
	Pipeline []passSpec `json:"pipeline,omitempty"`
	// Mapping overrides the initial-mapping strategy ("gathering",
	// "even-divided", "sta") for the ssync compiler family and for
	// pipeline placement passes that do not override it themselves.
	Mapping string `json:"mapping,omitempty"`
	// AnnealSeed overrides the deterministic seed of the "ssync-annealed"
	// compiler (and of pipeline place-annealed stages without their own
	// seed option); nil keeps the default. The seed is part of the cache
	// key.
	AnnealSeed *int64 `json:"anneal_seed,omitempty"`
	// Portfolio races the default portfolio (including the annealed
	// entrant) and returns the best result. Single-compile only.
	Portfolio bool `json:"portfolio,omitempty"`
	// TimeoutMs bounds this request's compile time; 0 uses the server
	// default, and overrides may only lower it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Priority is the scheduling class ("interactive", "batch",
	// "background"). Single compiles default to interactive; batch and
	// portfolio entries default to batch. Under load the admission
	// scheduler hands worker slots out by class weight, and full class
	// queues shed with 429 + Retry-After.
	Priority string `json:"priority,omitempty"`
	// DeadlineMs is the request's completion budget in milliseconds from
	// arrival. Beyond bounding the compile like timeout_ms, it drives
	// deadline-aware admission: a request whose queue-wait estimate
	// already exceeds the deadline is rejected immediately with 503 +
	// Retry-After instead of timing out after queueing.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// passTiming is one executed pipeline stage in a compile response.
type passTiming struct {
	Pass string  `json:"pass"`
	Ms   float64 `json:"ms"`
	// GateDelta is the stage's change in working gate count (basis
	// expansion for decomposition, transport overhead for routing).
	GateDelta int `json:"gate_delta"`
}

// compileResponse is one /v2 compilation outcome.
type compileResponse struct {
	Label         string  `json:"label,omitempty"`
	Compiler      string  `json:"compiler,omitempty"`
	Winner        string  `json:"winner,omitempty"` // portfolio entrant that won
	Topology      string  `json:"topology,omitempty"`
	Qubits        int     `json:"qubits,omitempty"`
	TwoQubitGates int     `json:"two_qubit_gates,omitempty"`
	Shuttles      int     `json:"shuttles"`
	Swaps         int     `json:"swaps"`
	SuccessRate   float64 `json:"success_rate"`
	ExecTimeUs    float64 `json:"exec_time_us"`
	CompileMs     float64 `json:"compile_ms"`
	CacheHit      bool    `json:"cache_hit"`
	Key           string  `json:"key,omitempty"`
	Error         string  `json:"error,omitempty"`
	// TraceID names the request's distributed trace (also the X-Trace-ID
	// response header, and the trace_id on every log line the request
	// wrote), so stored responses stay joinable to server logs; fetch the
	// span tree later at /v2/traces/<id>.
	TraceID string `json:"trace_id,omitempty"`
	// Priority is the scheduling class the request actually ran in —
	// the requested (or default) class after the principal's quota
	// clamp, so a demoted request can see it was demoted.
	Priority string `json:"priority,omitempty"`
	// ErrorStatus classifies a failed batch entry with the HTTP status
	// the same failure would earn on /v2/compile — 429 (class queue
	// full) and 503 (deadline unmeetable) keep their load-shedding
	// semantics even though the batch envelope itself is a 200. Zero on
	// success (and on /v2/compile, where the real status line carries it).
	ErrorStatus int `json:"error_status,omitempty"`
	// RetryAfterMs hints when to retry a shed batch entry (the
	// per-entry equivalent of the Retry-After header); omitted when the
	// scheduler has no drain estimate yet.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// CacheTier names the tier that served a cache hit ("memory" or
	// "disk"); omitted on misses.
	CacheTier string `json:"cache_tier,omitempty"`
	// Coalesced reports that this request attached to an identical
	// in-flight compilation instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Pipeline lists the executed pipeline's pass names in stage order
	// (the canned expansion for built-in compiler names).
	Pipeline []string `json:"pipeline,omitempty"`
	// Passes itemises the compilation per pass. Cache hits report the
	// timings of the compilation that produced the cached result.
	Passes []passTiming `json:"passes,omitempty"`
}

type batchRequest struct {
	Requests []compileRequest `json:"requests"`
}

type batchResponse struct {
	Results []compileResponse `json:"results"`
	// Errors counts entries that failed; the per-entry Error fields say why.
	Errors int `json:"errors"`
	// TraceID names the batch request's distributed trace.
	TraceID string `json:"trace_id,omitempty"`
}

type compilersResponse struct {
	Compilers []string `json:"compilers"`
}

// passesResponse lists the composable pass surface: every registered
// pass name plus the canned pipelines behind the built-in compiler names
// (the starting points most custom pipelines edit).
type passesResponse struct {
	Passes    []string              `json:"passes"`
	Pipelines map[string][]passSpec `json:"pipelines"`
}

// server is the ssyncd HTTP API over one shared engine. Compile
// concurrency is bounded by the engine itself (engine.Options.Workers):
// every actual compilation holds one engine slot, so -workers caps
// machine load no matter how many requests arrive at once, while cache
// hits and coalesced requests pass without consuming a slot.
type server struct {
	eng     *engine.Engine
	workers int
	timeout time.Duration
	start   time.Time
	// metrics caches the deterministic scoring simulation per request key,
	// so cache-hit requests skip simulation as well as compilation.
	metrics *store.LRU[sim.Metrics]
	// log is the service logger; the edge derives the per-request logger
	// (with trace_id) from it. Never nil — newServer installs a discard
	// logger.
	log *slog.Logger
	// reg is the Prometheus registry behind GET /metrics; snap mirrors
	// the engine snapshot into it at scrape time, edgeMetrics is fed by
	// the edge from each request and the spans of its trace. Never nil.
	reg         *obs.Registry
	snap        *snapshotMetrics
	edgeMetrics *edgeMetrics
	// auth, when non-nil, guards the compile-submitting routes with
	// API-key authentication and per-principal quota degradation; nil
	// (the default) leaves the service open exactly as before.
	auth *authLayer
	// recorder is the flight recorder behind GET /v2/traces; nil disables
	// retention (requests are still traced for their own response).
	recorder *obs.Recorder
	// traceSlow, when positive, dumps any slower request's span tree to
	// the log at warn level.
	traceSlow time.Duration
}

func newServer(eng *engine.Engine, workers int, timeout time.Duration) *server {
	if workers <= 0 {
		workers = 1
	}
	s := &server{
		eng: eng, workers: workers, timeout: timeout, start: time.Now(),
		metrics: store.NewLRU[sim.Metrics](engine.DefaultCacheSize),
		log:     slog.New(slog.DiscardHandler),
		// The flight recorder is on by default ("always-on"): bounded
		// memory, so embedders pay a fixed cost. main resizes or disables
		// it from the -trace-* flags.
		recorder: obs.NewRecorder(obs.RecorderOptions{}),
		reg:      obs.NewRegistry(),
	}
	s.edgeMetrics = newEdgeMetrics(s.reg)
	s.snap = newSnapshotMetrics(s.reg)
	registerBuildInfo(s.reg, s.start)
	// The stats closure reads s.recorder at scrape time, so main may swap
	// or disable the recorder after construction without re-registering.
	registerTraceMetrics(s.reg, func() obs.RecorderStats { return s.recorder.Stats() })
	s.reg.OnScrape(func() { s.snap.update(s.eng.Stats()) })
	return s
}

// routes builds the service's handler tree behind the edge. The edge
// takes log, recorder and traceSlow as they are at this call, so set
// them first.
func (s *server) routes() http.Handler {
	// Only the compile-submitting POST routes are guarded; the GET
	// surface stays open so health checks, scrapers and the cluster
	// router's replica polling need no credentials.
	guard := func(h http.HandlerFunc) http.Handler {
		if s.auth != nil {
			return s.auth.guard(h)
		}
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/v2/compile", guard(s.handleCompile))
	mux.Handle("/v2/batch", guard(s.handleBatch))
	mux.HandleFunc("/v2/compilers", s.handleCompilers)
	mux.HandleFunc("/v2/passes", s.handlePasses)
	mux.HandleFunc("/v2/stats", s.handleStats)
	mux.HandleFunc("GET /v2/traces", s.handleTracesList)
	mux.HandleFunc("GET /v2/traces/{id}", s.handleTraceGet)
	mux.Handle("/metrics", s.reg)
	return edge{log: s.log, rec: s.recorder, slow: s.traceSlow, metrics: s.edgeMetrics}.handler(mux)
}

// handleCompile serves POST /v2/compile.
func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req compileRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	resp, status, err := s.compileOne(r.Context(), req)
	if err != nil {
		writeError(w, status, err)
		return
	}
	resp.TraceID = obs.TraceFrom(r.Context()).ID()
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v2/batch.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req batchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	results, status, err := s.compileBatch(r.Context(), req.Requests)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	resp := batchResponse{
		Results: results,
		TraceID: obs.TraceFrom(r.Context()).ID(),
	}
	for _, r2 := range results {
		if r2.Error != "" {
			resp.Errors++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCompilers serves GET /v2/compilers: the compiler names a
// request may address.
func (s *server) handleCompilers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, compilersResponse{Compilers: engine.Compilers()})
}

// handlePasses serves GET /v2/passes: the registered pass names a
// pipeline may compose, plus the canned pipelines behind the built-in
// compiler names.
func (s *server) handlePasses(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	names, pipelines := pass.BuiltinPipelines()
	resp := passesResponse{Passes: pass.Names(), Pipelines: make(map[string][]passSpec, len(names))}
	for i, name := range names {
		specs := make([]passSpec, len(pipelines[i]))
		for j, sp := range pipelines[i] {
			specs[j] = passSpec{Name: sp.Name, Options: sp.Options}
		}
		resp.Pipelines[name] = specs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats serves GET /v2/stats: the request, compile and result
// cache counters plus coalescing, the compiler listing, the per-tier
// artifact-store breakdown and the per-pass aggregates — all rendered
// from one engine snapshot, so the sections are mutually consistent.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.stats())
}

// compileOne handles one wire request end to end (portfolio or single
// compile). The int is the HTTP status to use when err is non-nil.
func (s *server) compileOne(ctx context.Context, req compileRequest) (compileResponse, int, error) {
	if req.Portfolio {
		return s.racePortfolio(ctx, req)
	}
	er, err := s.buildRequest(ctx, req, sched.Interactive, time.Now())
	if err != nil {
		return compileResponse{}, buildErrorStatus(err), err
	}
	// Compile concurrency is bounded inside the engine (Options.Workers),
	// so a single compile needs no pool plumbing.
	res := s.eng.Do(ctx, er)
	if res.Err != nil {
		return compileResponse{}, compileErrorStatus(res.Err), res.Err
	}
	resp := s.render(er, res)
	resp.Priority = string(er.Priority)
	return resp, http.StatusOK, nil
}

// racePortfolio runs the default portfolio for the request's circuit.
// The int is the HTTP status to use when err is non-nil: 400 for request
// problems, 422 for well-formed requests whose variants all fail.
func (s *server) racePortfolio(ctx context.Context, req compileRequest) (compileResponse, int, error) {
	if req.Compiler != "" && req.Compiler != engine.CompilerSSync {
		return compileResponse{}, http.StatusBadRequest, fmt.Errorf("portfolio races ssync variants; drop the compiler field")
	}
	if len(req.Pipeline) > 0 {
		return compileResponse{}, http.StatusBadRequest, fmt.Errorf("portfolio races canned variants; drop the pipeline field (or compile the pipeline directly)")
	}
	if req.Mapping != "" {
		return compileResponse{}, http.StatusBadRequest, fmt.Errorf("portfolio already races every mapping strategy; drop the mapping field")
	}
	if req.AnnealSeed != nil {
		return compileResponse{}, http.StatusBadRequest, fmt.Errorf("portfolio already includes the annealed entrant under its default seed; drop the anneal_seed field")
	}
	// Portfolio entrants are throughput work by construction: without an
	// explicit priority they race in the batch class, so a portfolio
	// cannot monopolize the worker slots against interactive compiles.
	er, err := s.buildRequest(ctx, req, sched.Batch, time.Now())
	if err != nil {
		return compileResponse{}, buildErrorStatus(err), err
	}
	out, err := s.eng.Race(ctx, er.Circuit, er.Topo, nil, engine.RaceOptions{
		Workers: s.workers, Timeout: er.Timeout,
		Priority: er.Priority, Deadline: er.Deadline, Metrics: s.metrics,
	})
	if err != nil {
		return compileResponse{}, compileErrorStatus(err), err
	}
	resp := renderWithMetrics(er, out.Winner, out.Metrics[out.WinnerIndex])
	resp.Label = req.Label
	resp.Winner = out.Winner.Label
	resp.Priority = string(er.Priority)
	return resp, http.StatusOK, nil
}

// compileBatch handles a batch of wire requests. The int is the HTTP
// status when err is non-nil.
func (s *server) compileBatch(ctx context.Context, entries []compileRequest) ([]compileResponse, int, error) {
	if len(entries) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("batch needs at least one entry")
	}
	if len(entries) > maxBatchJobs {
		return nil, http.StatusBadRequest,
			fmt.Errorf("batch of %d entries exceeds the service limit of %d", len(entries), maxBatchJobs)
	}
	sizeBudget := 0
	for _, cr := range entries {
		if n, ok := benchmarkSize(cr.Benchmark); ok && n > 0 {
			// Clamp before summing: oversized entries are rejected
			// individually anyway, and the clamp keeps a handful of huge
			// declared sizes from overflowing the budget accumulator.
			if n > maxBenchmarkSize {
				n = maxBenchmarkSize
			}
			sizeBudget += n
		}
	}
	if sizeBudget > maxBatchSizeBudget {
		return nil, http.StatusBadRequest,
			fmt.Errorf("aggregate benchmark size %d exceeds the service limit of %d", sizeBudget, maxBatchSizeBudget)
	}

	// Malformed entries fail individually without sinking the batch; the
	// well-formed remainder is fanned across the pool. One arrival time
	// anchors every entry's deadline_ms: entries build sequentially
	// through the construction limiter, and a later entry's budget must
	// not be silently extended by its siblings' queue time.
	arrival := time.Now()
	results := make([]compileResponse, len(entries))
	var reqs []engine.Request
	var reqIdx []int
	for i, cr := range entries {
		if cr.Portfolio {
			results[i] = compileResponse{Label: cr.Label, Error: "portfolio is single-compile only; use the compile endpoint"}
			continue
		}
		er, err := s.buildRequest(ctx, cr, sched.Batch, arrival)
		if err != nil {
			results[i] = entryError(cr.Label, err, buildErrorStatus(err))
			continue
		}
		reqs = append(reqs, er)
		reqIdx = append(reqIdx, i)
	}
	// A batch carrying k entries pays the same rate cost as k single
	// requests: the admission at the edge already paid the first token,
	// the rest are charged here against the request's quota grant.
	auth.ChargeExtra(ctx, len(reqs)-1)
	pool := engine.Pool{Engine: s.eng, Workers: s.workers}
	for k, res := range pool.RunRequests(ctx, reqs) {
		i := reqIdx[k]
		if res.Err != nil {
			results[i] = entryError(res.Label, res.Err, compileErrorStatus(res.Err))
			continue
		}
		results[i] = s.render(reqs[k], res)
		results[i].Priority = string(reqs[k].Priority)
	}
	return results, http.StatusOK, nil
}

// entryError shapes one failed batch entry, preserving the
// load-shedding contract the batch envelope's 200 would otherwise hide:
// the entry carries the status the failure would earn on /v2/compile
// (429/503 for scheduler sheds) plus the per-entry Retry-After
// equivalent.
func entryError(label string, err error, status int) compileResponse {
	out := compileResponse{Label: label, Error: err.Error(), ErrorStatus: status}
	if retry, ok := sched.RetryAfter(err); ok && retry > 0 {
		out.RetryAfterMs = int64(retry / time.Millisecond)
	}
	return out
}

// jobTimeout resolves the per-request compile bound: the request override
// when given, the server default otherwise. Clients may only lower the
// bound — a raised override would let a few requests pin the worker
// slots past the operator's -timeout.
func (s *server) jobTimeout(timeoutMs int) time.Duration {
	if timeoutMs > 0 {
		t := time.Duration(timeoutMs) * time.Millisecond
		if s.timeout > 0 && t > s.timeout {
			return s.timeout
		}
		return t
	}
	return s.timeout
}

// Service limits on generator-built circuits. Generation cost is paid
// before the per-job timeout starts, so these caps keep one hostile
// request from building hundreds of millions of gates; the largest
// Table 2 benchmark is 66 qubits. (Inline QASM is bounded by
// qasm.Parse's gate budget, which grows with the program text, so a
// short body cannot broadcast or nest its way to millions of gates.)
const (
	// maxBenchmarkSize bounds one entry's problem size. Generation runs
	// on the request goroutine, so the cap must keep a single build to
	// milliseconds; the largest Table 2 benchmark is 66.
	maxBenchmarkSize = 256
	// maxBatchJobs bounds entries per batch request.
	maxBatchJobs = 256
	// maxBatchSizeBudget bounds the summed benchmark sizes of a batch, so
	// many individually-legal entries cannot multiply into unbounded
	// aggregate generation cost.
	maxBatchSizeBudget = 2048
)

// benchmarkSize is workloads.ParseSize — the exact parser Build uses, so
// the service caps cannot be bypassed by inputs the two layers read
// differently.
var benchmarkSize = workloads.ParseSize

func buildCircuit(req compileRequest) (*circuit.Circuit, error) {
	switch {
	case req.Benchmark != "" && req.QASM != "":
		return nil, fmt.Errorf("pass either benchmark or qasm, not both")
	case req.Benchmark != "":
		if n, ok := benchmarkSize(req.Benchmark); ok && n > maxBenchmarkSize {
			return nil, fmt.Errorf("benchmark size %d exceeds the service limit of %d", n, maxBenchmarkSize)
		}
		return workloads.Build(req.Benchmark)
	case req.QASM != "":
		return qasm.Parse(req.QASM)
	}
	return nil, fmt.Errorf("one of benchmark or qasm is required")
}

func buildTopology(req compileRequest) (*device.Topology, error) {
	if req.Topology == "" {
		return nil, fmt.Errorf("topology is required")
	}
	capacity := req.Capacity
	if capacity == 0 {
		capacity = device.PaperCapacity(req.Topology)
	}
	return device.ByName(req.Topology, capacity)
}

// pipelineSpecs converts the wire pipeline to the engine's pass specs.
func pipelineSpecs(specs []passSpec) []pass.Spec {
	if len(specs) == 0 {
		return nil
	}
	out := make([]pass.Spec, len(specs))
	for i, s := range specs {
		out[i] = pass.Spec{Name: s.Name, Options: s.Options}
	}
	return out
}

// resolveStrategy resolves a wire request's execution plan: the compiler
// name or explicit pipeline, plus the mapping/anneal overrides folded
// into their config structs. It performs the cheap field-level
// validation (compiler existence, mutually exclusive fields, inert
// overrides) and nothing else — no circuit or topology construction.
func resolveStrategy(req compileRequest) (name string, cfg *core.Config, ann *mapping.AnnealConfig, err error) {
	name = req.Compiler
	if len(req.Pipeline) > 0 {
		if name != "" {
			return "", nil, nil, fmt.Errorf("pass either compiler or pipeline, not both")
		}
		// Build (and discard) the pipeline now so malformed stages fail
		// as 400s with the offending stage named, not as compile errors.
		built, err := pass.Build(pipelineSpecs(req.Pipeline))
		if err != nil {
			return "", nil, nil, err
		}
		// Reject overrides no stage would read — a mis-placed knob must
		// not succeed silently with a different compilation than asked.
		use := pass.PipelineUse(built)
		if req.Mapping != "" && !use.Config && !use.Mapping {
			return "", nil, nil, fmt.Errorf("mapping override is inert: no pipeline stage reads the scheduler or mapping config")
		}
		if req.AnnealSeed != nil && !use.Anneal {
			return "", nil, nil, fmt.Errorf("anneal_seed is inert: no pipeline stage reads the annealer config (add %s)", pass.PlaceAnnealed)
		}
	} else {
		if name == "" {
			name = engine.CompilerSSync
		}
		if !engine.Registered(name) {
			return "", nil, nil, &engine.UnknownCompilerError{Name: name, Known: engine.Compilers()}
		}
	}
	if req.Mapping != "" {
		if name == engine.CompilerMurali || name == engine.CompilerDai {
			return "", nil, nil, fmt.Errorf("mapping override applies to the ssync compiler only")
		}
		strat, err := mapping.ParseStrategy(req.Mapping)
		if err != nil {
			return "", nil, nil, err
		}
		c := core.DefaultConfig()
		c.Mapping.Strategy = strat
		cfg = &c
	}
	if req.AnnealSeed != nil {
		switch name {
		case engine.CompilerMurali, engine.CompilerDai, engine.CompilerSSync:
			return "", nil, nil, fmt.Errorf("anneal_seed applies to the %q compiler only", engine.CompilerSSyncAnnealed)
		}
		a := mapping.DefaultAnnealConfig()
		a.Seed = *req.AnnealSeed
		ann = &a
	}
	return name, cfg, ann, nil
}

// schedParams resolves a wire request's scheduling fields: its priority
// class (def when unset — interactive for single compiles, batch for
// batch entries and portfolio entrants), its absolute deadline, and ctx
// re-bounded by that deadline. The budget runs from arrival — the
// caller passes the moment the HTTP request (or its enclosing batch)
// was accepted, so a batch entry built after its siblings queued
// through the construction limiter does not get its deadline silently
// extended by that wait — and the returned context also covers the
// construction phase: a doomed request is shed at the construction
// limiter's admission control instead of queueing there deadline-less.
// cancel is always non-nil.
func schedParams(ctx context.Context, req compileRequest, def sched.Class, arrival time.Time) (_ context.Context, cancel context.CancelFunc, class sched.Class, deadline time.Time, err error) {
	cancel = func() {}
	class, err = sched.ParseClass(req.Priority)
	if err != nil {
		return ctx, cancel, "", deadline, err
	}
	if req.Priority == "" {
		class = def
	}
	// An authenticated request's class is capped by its principal's
	// admission grant (or MaxClass): over-budget principals are demoted
	// down the ladder here instead of rejected. The response's priority
	// field echoes the class actually used.
	class = auth.Clamp(ctx, class)
	if req.DeadlineMs < 0 {
		return ctx, cancel, "", deadline, fmt.Errorf("deadline_ms must not be negative")
	}
	if req.DeadlineMs > 0 {
		deadline = arrival.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	return ctx, cancel, class, deadline, nil
}

// engineRequest converts a decoded wire request into the engine request
// it asks for: its compiler or pipeline with their configurations
// (resolveStrategy), its circuit and its topology. The compile, batch
// and portfolio handlers and the cluster router's key function all go
// through it, so a replica and the router cannot read one body as two
// different compilations. Strategy resolution is cheap field-level
// validation and runs first, so a malformed request is rejected before
// limit runs; circuit and topology construction — CPU work paid before
// any compile timeout starts — runs inside limit. A replica passes its
// worker-slot limiter there; the router, which compiles nothing, runs
// construction directly.
func engineRequest(req compileRequest, limit func(build func() error) error) (engine.Request, error) {
	name, cfg, ann, err := resolveStrategy(req)
	if err != nil {
		return engine.Request{}, err
	}
	out := engine.Request{
		Label: req.Label, Compiler: name, Pipeline: pipelineSpecs(req.Pipeline),
		Config: cfg, Anneal: ann,
	}
	err = limit(func() error {
		var err error
		if out.Circuit, err = buildCircuit(req); err != nil {
			return err
		}
		out.Topo, err = buildTopology(req)
		return err
	})
	if err != nil {
		return engine.Request{}, err
	}
	return out, nil
}

// buildRequest turns a wire request into an engine request on this
// replica: it resolves the scheduling fields first (schedParams), then
// converts the request (engineRequest) with circuit and topology
// construction under the engine's worker-slot limiter, in the request's
// own priority class, so a burst of requests with huge inline QASM
// programs queues for compile slots instead of saturating every request
// goroutine at once. def is the class an entry without an explicit
// priority lands in; arrival anchors the entry's deadline_ms budget.
func (s *server) buildRequest(ctx context.Context, req compileRequest, def sched.Class, arrival time.Time) (engine.Request, error) {
	ctx, cancel, class, deadline, err := schedParams(ctx, req, def, arrival)
	defer cancel()
	if err != nil {
		return engine.Request{}, err
	}
	out, err := engineRequest(req, func(build func() error) error {
		return s.eng.LimitAs(ctx, class, build)
	})
	if err != nil {
		return engine.Request{}, err
	}
	out.Timeout = s.jobTimeout(req.TimeoutMs)
	out.Priority, out.Deadline = class, deadline
	return out, nil
}

// routerRequestKey is the cluster router's KeyFunc: it decodes and
// converts the body exactly as a replica does (decodeStrict,
// engineRequest) and computes the v4 content address the replicas cache
// under, so placement agrees with the replica-side cache and identical
// circuits land on the shard that already holds (or is already
// compiling) their result. Anything it cannot key — batches, GETs,
// portfolio races, bodies a replica would refuse — returns ok=false and
// routes by body hash instead: affinity still holds for repeated
// identical payloads, it just stops being schema-aware.
func routerRequestKey(method, path string, body []byte) (cluster.Key, bool) {
	if method != http.MethodPost {
		return cluster.Key{}, false
	}
	if path != "/v2/compile" {
		// Batches hash as one body: their entries fan out on whichever
		// replica receives them, and splitting a batch across shards would
		// trade its single response envelope for router-side re-assembly.
		return cluster.Key{}, false
	}
	var wire compileRequest
	if decodeStrict(bytes.NewReader(body), &wire) != nil {
		return cluster.Key{}, false
	}
	if wire.Portfolio {
		// A portfolio race is several compilations; there is no single
		// request key. Body-hash affinity still pins repeats to one shard.
		return cluster.Key{}, false
	}
	// The router compiles nothing, so construction takes no worker slot.
	req, err := engineRequest(wire, func(build func() error) error { return build() })
	if err != nil {
		return cluster.Key{}, false
	}
	k, err := engine.RequestKey(req)
	if err != nil {
		return cluster.Key{}, false
	}
	return cluster.Key(k), true
}

// render scores a compiled request and shapes the wire response. The
// scoring simulation is deterministic per request key, so it is cached
// alongside the compile results — a cache-hit request does no simulation
// either.
func (s *server) render(req engine.Request, res engine.Response) compileResponse {
	// A zero key means the engine ran cacheless (-cache < 0) and computed
	// no content address; don't let unrelated requests share one metrics
	// slot.
	keyed := res.Key != engine.Key{}
	m, ok := sim.Metrics{}, false
	if keyed {
		m, ok = s.metrics.Get(store.Key(res.Key))
	}
	if !ok {
		m = sim.Run(res.Result.Schedule, req.Topo, sim.DefaultOptions())
		if keyed {
			s.metrics.Put(store.Key(res.Key), m)
		}
	}
	return renderWithMetrics(req, res, m)
}

// renderWithMetrics shapes the wire response from an already-scored
// compilation.
func renderWithMetrics(req engine.Request, res engine.Response, m sim.Metrics) compileResponse {
	out := compileResponse{
		Label:         res.Label,
		Compiler:      res.Compiler,
		Topology:      req.Topo.Name,
		Qubits:        req.Circuit.NumQubits,
		TwoQubitGates: req.Circuit.TwoQubitCount(),
		Shuttles:      res.Result.Counts.Shuttles,
		Swaps:         res.Result.Counts.Swaps,
		SuccessRate:   m.SuccessRate,
		ExecTimeUs:    m.ExecutionTime,
		CompileMs:     float64(res.Result.CompileTime) / float64(time.Millisecond),
		CacheHit:      res.CacheHit,
		Key:           res.Key.String(),
		CacheTier:     res.CacheTier,
		Coalesced:     res.Coalesced,
		Pipeline:      res.Pipeline,
	}
	for _, pt := range res.Result.PassTimings {
		out.Passes = append(out.Passes, passTiming{
			Pass:      pt.Pass,
			Ms:        float64(pt.Duration) / float64(time.Millisecond),
			GateDelta: pt.GateDelta,
		})
	}
	return out
}

// passStats aggregates one pass's executions service-wide.
type passStats struct {
	Runs    uint64  `json:"runs"`
	TotalMs float64 `json:"total_ms"`
	// CacheHits counts executions skipped because the stage was part of
	// a restored pipeline prefix (per-stage caching).
	CacheHits uint64 `json:"cache_hits,omitempty"`
}

// tierStats breaks one tiered cache down per tier over the wire.
type tierStats struct {
	MemHits     uint64 `json:"mem_hits"`
	DiskHits    uint64 `json:"disk_hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Errors      uint64 `json:"errors,omitempty"`
	MemEntries  int    `json:"mem_entries"`
	MemCapacity int    `json:"mem_capacity"`
	// Disk-tier fields; present only when -cache-dir is set.
	DiskEntries   int    `json:"disk_entries,omitempty"`
	DiskBytes     int64  `json:"disk_bytes,omitempty"`
	DiskMaxBytes  int64  `json:"disk_max_bytes,omitempty"`
	DiskEvictions uint64 `json:"disk_evictions,omitempty"`
	DiskCorrupt   uint64 `json:"disk_corrupt,omitempty"`
}

func renderTierStats(st store.TieredStats) tierStats {
	out := tierStats{
		MemHits: st.MemHits, DiskHits: st.DiskHits, Misses: st.Misses,
		Puts: st.Puts, Errors: st.Errors,
		MemEntries: st.Mem.Entries, MemCapacity: st.Mem.Capacity,
	}
	if st.HasDisk {
		out.DiskEntries = st.Disk.Entries
		out.DiskBytes = st.Disk.Bytes
		out.DiskMaxBytes = st.Disk.MaxBytes
		out.DiskEvictions = st.Disk.Evictions
		out.DiskCorrupt = st.Disk.Corrupt
	}
	return out
}

// storeStats is the artifact-store section of /v2/stats: the finished
// result cache and (when -stage-cache is on) the per-stage snapshot
// cache, each per tier.
type storeStats struct {
	Results tierStats  `json:"results"`
	Stages  *tierStats `json:"stages,omitempty"`
}

// schedClassStats is one priority class's row in the /v2/stats sched
// section.
type schedClassStats struct {
	// Weight is the class's share of slot handoffs under contention.
	Weight int `json:"weight"`
	// QueueLimit is the class's admission-queue bound (negative:
	// unbounded).
	QueueLimit int `json:"queue_limit"`
	// Depth is the current queue depth.
	Depth int `json:"depth"`
	// Admitted counts requests that acquired a worker slot.
	Admitted uint64 `json:"admitted"`
	// ShedQueueFull counts arrivals rejected with 429 (queue full).
	ShedQueueFull uint64 `json:"shed_queue_full"`
	// ShedDeadline counts arrivals rejected with 503 (queue-wait
	// estimate already past their deadline).
	ShedDeadline uint64 `json:"shed_deadline"`
	// Abandoned counts waiters that left the queue before being served
	// (client cancelled, timeout expired while queued).
	Abandoned uint64 `json:"abandoned"`
	// AvgWaitMs / MaxWaitMs summarise queue time across admissions that
	// actually queued.
	AvgWaitMs float64 `json:"avg_wait_ms"`
	MaxWaitMs float64 `json:"max_wait_ms"`
}

// schedPrincipalStats is one principal's scheduler row: how the
// worker-slot budget was actually consumed per identity.
type schedPrincipalStats struct {
	Name     string `json:"name"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	InFlight int    `json:"in_flight"`
}

// schedStats is the admission-scheduler section of /v2/stats.
type schedStats struct {
	// Slots is the worker-slot budget (-workers).
	Slots int `json:"slots"`
	// Busy is the number of slots currently held.
	Busy int `json:"busy"`
	// Queued is the total admission-queue depth across classes.
	Queued int `json:"queued"`
	// AvgServiceMs is the scheduler's service-time estimate (EWMA of
	// slot-hold durations) behind its queue-wait predictions.
	AvgServiceMs float64 `json:"avg_service_ms"`
	// Classes maps each priority class to its row.
	Classes map[string]schedClassStats `json:"classes"`
	// Principals breaks admissions/sheds/in-flight down per
	// authenticated principal; empty on services without access control.
	Principals []schedPrincipalStats `json:"principals,omitempty"`
}

// schedStats renders the scheduler snapshot for the wire.
func renderSchedStats(st *sched.Stats) *schedStats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := &schedStats{
		Slots: st.Slots, Busy: st.Busy, Queued: st.Queued,
		AvgServiceMs: ms(st.AvgService),
		Classes:      make(map[string]schedClassStats, len(st.Classes)),
	}
	for _, c := range st.Classes {
		out.Classes[string(c.Class)] = schedClassStats{
			Weight:        c.Weight,
			QueueLimit:    c.QueueLimit,
			Depth:         c.Depth,
			Admitted:      c.Admitted,
			ShedQueueFull: c.ShedQueueFull,
			ShedDeadline:  c.ShedDeadline,
			Abandoned:     c.Abandoned,
			AvgWaitMs:     ms(c.AvgWait()),
			MaxWaitMs:     ms(c.MaxWait),
		}
	}
	for _, p := range st.Principals {
		out.Principals = append(out.Principals, schedPrincipalStats{
			Name: p.Name, Admitted: p.Admitted, Shed: p.Shed, InFlight: p.InFlight,
		})
	}
	return out
}

type statsResponse struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Requests       uint64  `json:"requests"`
	JobsCompiled   uint64  `json:"jobs_compiled"`
	JobErrors      uint64  `json:"job_errors"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	Workers        int     `json:"workers"`
	// Coalesced counts requests served by attaching to an in-flight
	// identical compilation (single-flight joins).
	Coalesced uint64 `json:"coalesced"`
	// Compilers lists the built-in compiler names.
	Compilers []string `json:"compilers"`
	// Store breaks the artifact store down per cache and per tier;
	// omitted when the engine runs cacheless (-cache < 0).
	Store *storeStats `json:"store,omitempty"`
	// Sched is the admission scheduler's snapshot — slot occupancy,
	// per-class queue depth/wait and admitted/shed counts — taken from
	// the same engine snapshot as every other section.
	Sched *schedStats `json:"sched,omitempty"`
	// Passes aggregates pipeline stages by pass name; only compilations
	// that actually ran contribute runs (whole-result cache hits and
	// coalesced waiters do not re-count), while cache_hits counts stages
	// skipped via restored prefixes.
	Passes map[string]passStats `json:"passes,omitempty"`
	// Auth is the access-control snapshot — key-set generation and
	// per-principal quota budgets; omitted on open services.
	Auth *authStats `json:"auth,omitempty"`
	// Sim is the state-vector simulator's snapshot: gate applications
	// and the shared verification-reference cache (hits mean a verify
	// reused a previously simulated reference instead of re-simulating
	// it).
	Sim *sim.Stats `json:"sim,omitempty"`
}

// authStats is the access-control section of /v2/stats.
type authStats struct {
	// Keys describes the serving keys-file generation.
	Keys auth.KeySetStats `json:"keys"`
	// Principals lists every tracked principal's quota budget state:
	// token balance, in-flight grants, and admit/demote/shed counters.
	Principals []auth.PrincipalQuotaStats `json:"principals,omitempty"`
}

// stats renders the full /v2/stats body from one engine snapshot, so
// no two sections can disagree (the torn read a second Stats call
// between them would allow).
func (s *server) stats() statsResponse {
	st := s.eng.Stats()
	resp := statsResponse{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Requests:       s.edgeMetrics.requests.Load(),
		JobsCompiled:   st.Compiled,
		JobErrors:      st.Errors,
		CacheHits:      st.Cache.Hits,
		CacheMisses:    st.Cache.Misses,
		CacheEvictions: st.Cache.Evictions,
		CacheEntries:   st.Cache.Entries,
		CacheCapacity:  st.Cache.Capacity,
		CacheHitRate:   st.Cache.HitRate(),
		Workers:        s.workers,
		Coalesced:      st.Coalesced,
		Compilers:      engine.Compilers(),
	}
	if st.Results.Mem.Capacity > 0 { // zero exactly when the engine runs cacheless
		ss := &storeStats{Results: renderTierStats(st.Results)}
		if st.Stages.Mem.Capacity > 0 {
			stages := renderTierStats(st.Stages)
			ss.Stages = &stages
		}
		resp.Store = ss
	}
	if st.Sched != nil {
		resp.Sched = renderSchedStats(st.Sched)
	}
	if s.auth != nil {
		resp.Auth = &authStats{
			Keys:       s.auth.authn.Stats(),
			Principals: s.auth.enforcer.Stats(),
		}
	}
	if len(st.Passes) > 0 {
		resp.Passes = make(map[string]passStats, len(st.Passes))
		for name, ps := range st.Passes {
			resp.Passes[name] = passStats{
				Runs:      ps.Runs,
				TotalMs:   float64(ps.Total) / float64(time.Millisecond),
				CacheHits: ps.CacheHits,
			}
		}
	}
	simStats := st.Sim
	resp.Sim = &simStats
	return resp
}

// compileErrorStatus maps a compile failure to its HTTP status. The
// admission scheduler's structured load-shedding errors come first —
// they must never degrade to a generic failure code: 429 for a full
// priority-class queue (back off and retry), 503 for a deadline the queue-wait estimate already
// overruns (retry with a later deadline, or when load drains). Both
// carry a Retry-After hint the error writer turns into the header.
// Then 504 for timeouts (retryable with a higher timeout_ms), and 422
// for requests that are well-formed but cannot compile.
func compileErrorStatus(err error) int {
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, sched.ErrDeadline):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// buildErrorStatus maps a request-building failure to its HTTP status.
// Validation problems are the client's fault (400), but construction
// queues for an engine worker slot, so a context expiry — or an
// admission-control shed — there is load, not a malformed request:
// report it like the compile-phase equivalent (retryable) rather than
// a 400.
func buildErrorStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || sched.Shed(err) {
		return compileErrorStatus(err)
	}
	return http.StatusBadRequest
}

// writeError writes an error response, attaching a Retry-After header
// (in whole seconds, rounded up, minimum 1) when the error chain
// carries a scheduler load-shed or quota-shed with a drain estimate —
// the contract behind every 429/503 this service emits.
func writeError(w http.ResponseWriter, status int, err error) {
	retry, ok := sched.RetryAfter(err)
	if !ok {
		retry, ok = auth.RetryAfter(err)
	}
	if ok {
		secs := int64(retry+time.Second-1) / int64(time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	httpError(w, status, err.Error())
}

// decodeStrict decodes exactly one JSON value from r into dst: unknown
// fields are an error, and so is anything but whitespace after the
// value. A replica's handlers and the router's key function both decode
// through it, so the two never disagree on what a body says.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errors.New("unexpected data after the JSON value")
}

// decodeJSON decodes a request body strictly (decodeStrict), answering
// 413 for a body over maxRequestBytes and 400 for any other failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxRequestBytes), dst); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "bad request body: "+err.Error())
		return err
	}
	return nil
}

// writeJSON encodes v before writing the status line, so a value JSON
// cannot encode (a NaN or ±Inf float) answers 500 with an error body
// instead of a 200 with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		json.NewEncoder(&body).Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body.Bytes())
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
