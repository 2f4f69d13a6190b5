package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ssync/internal/auth"
	"ssync/internal/circuit"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/obs"
	"ssync/internal/qasm"
	"ssync/internal/sched"
	"ssync/internal/sim"
	"ssync/internal/store"
	"ssync/internal/workloads"
)

// maxRequestBytes bounds a request body (QASM programs are text; 8 MiB is
// far beyond any Table 2 benchmark).
const maxRequestBytes = 8 << 20

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
	mux.Handle("/v2/compile", guard(s.handleCompileV2))
	mux.Handle("/v2/batch", guard(s.handleBatchV2))
	mux.HandleFunc("/v2/compilers", s.handleCompilersV2)
	mux.HandleFunc("/v2/passes", s.handlePassesV2)
	mux.HandleFunc("/v2/stats", s.handleStatsV2)
	mux.HandleFunc("GET /v2/traces", s.handleTracesList)
	mux.HandleFunc("GET /v2/traces/{id}", s.handleTraceGet)
	mux.Handle("/metrics", s.reg)
	return edge{log: s.log, rec: s.recorder, slow: s.traceSlow, metrics: s.edgeMetrics}.handler(mux)
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
// Table 2 benchmark is 66 qubits. (Inline QASM is already bounded by
// maxRequestBytes: gate count is limited by the program text.)
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

func buildCircuit(req compileRequestV2) (*circuit.Circuit, error) {
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

func buildTopology(req compileRequestV2) (*device.Topology, error) {
	if req.Topology == "" {
		return nil, fmt.Errorf("topology is required")
	}
	capacity := req.Capacity
	if capacity == 0 {
		capacity = device.PaperCapacity(req.Topology)
	}
	return device.ByName(req.Topology, capacity)
}

// racePortfolio runs the default portfolio for the request's circuit.
// The int is the HTTP status to use when err is non-nil: 400 for request
// problems, 422 for well-formed requests whose variants all fail.
func (s *server) racePortfolio(ctx context.Context, req compileRequestV2) (compileResponseV2, int, error) {
	if req.Compiler != "" && req.Compiler != engine.CompilerSSync {
		return compileResponseV2{}, http.StatusBadRequest, fmt.Errorf("portfolio races ssync variants; drop the compiler field")
	}
	if len(req.Pipeline) > 0 {
		return compileResponseV2{}, http.StatusBadRequest, fmt.Errorf("portfolio races canned variants; drop the pipeline field (or compile the pipeline directly)")
	}
	if req.Mapping != "" {
		return compileResponseV2{}, http.StatusBadRequest, fmt.Errorf("portfolio already races every mapping strategy; drop the mapping field")
	}
	if req.AnnealSeed != nil {
		return compileResponseV2{}, http.StatusBadRequest, fmt.Errorf("portfolio already includes the annealed entrant under its default seed; drop the anneal_seed field")
	}
	// Portfolio entrants are throughput work by construction: without an
	// explicit priority they race in the batch class, so a portfolio
	// cannot monopolize the worker slots against interactive compiles.
	ctx, cancel, class, deadline, err := schedParams(ctx, req, sched.Batch, time.Now())
	defer cancel()
	if err != nil {
		return compileResponseV2{}, http.StatusBadRequest, err
	}
	// Construction is CPU work on the request goroutine; bound it by the
	// engine's worker slots like buildRequest does, in the same class.
	var c *circuit.Circuit
	var topo *device.Topology
	if err := s.eng.LimitAs(ctx, class, func() error {
		var err error
		if c, err = buildCircuit(req); err != nil {
			return err
		}
		topo, err = buildTopology(req)
		return err
	}); err != nil {
		return compileResponseV2{}, buildErrorStatus(err), err
	}
	out, err := s.eng.Race(ctx, c, topo, nil, engine.RaceOptions{
		Workers: s.workers, Timeout: s.jobTimeout(req.TimeoutMs),
		Priority: class, Deadline: deadline, Metrics: s.metrics,
	})
	if err != nil {
		return compileResponseV2{}, compileErrorStatus(err), err
	}
	winnerReq := engine.Request{Label: req.Label, Circuit: c, Topo: topo}
	resp := renderWithMetrics(winnerReq, out.Winner, out.Metrics[out.WinnerIndex])
	resp.Label = req.Label
	resp.Winner = out.Winner.Label
	resp.Priority = string(class)
	return resp, http.StatusOK, nil
}

// render scores a compiled request and shapes the wire response. The
// scoring simulation is deterministic per request key, so it is cached
// alongside the compile results — a cache-hit request does no simulation
// either.
func (s *server) render(req engine.Request, res engine.Response) compileResponseV2 {
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
func renderWithMetrics(req engine.Request, res engine.Response, m sim.Metrics) compileResponseV2 {
	out := compileResponseV2{
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
		out.Passes = append(out.Passes, passTimingV2{
			Pass:      pt.Pass,
			Ms:        float64(pt.Duration) / float64(time.Millisecond),
			GateDelta: pt.GateDelta,
		})
	}
	return out
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

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "bad request body: "+err.Error())
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
