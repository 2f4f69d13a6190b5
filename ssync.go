// Package ssync is a Go implementation of S-SYNC — shuttle and SWAP
// co-optimisation for trapped-ion Quantum Charge-Coupled Device (QCCD)
// architectures (Zhu, Wu, Wang & Wang, ISCA 2025) — together with the full
// evaluation stack the paper builds on: an OpenQASM 2.0 front end,
// benchmark circuit generators, QCCD device models, baseline compilers,
// and timing/fidelity simulation.
//
// Quick start:
//
//	c := ssync.QFT(24)
//	topo, _ := ssync.TopologyByName("G-2x3", 17)
//	resp := ssync.Do(ctx, ssync.CompileRequest{Circuit: c, Topo: topo})
//	if resp.Err != nil { ... }
//	m := ssync.Simulate(resp.Result.Schedule, topo, ssync.DefaultSimOptions())
//	fmt.Printf("shuttles=%d swaps=%d success=%.3e\n",
//	    resp.Result.Counts.Shuttles, resp.Result.Counts.Swaps, m.SuccessRate)
//
// Compilers are addressed by name ("ssync", "murali", "dai",
// "ssync-annealed"); identical requests are served from a
// content-addressed cache, and concurrent identical requests coalesce
// into one compilation.
//
// The built-in compilers are canned pass pipelines: decompose, place,
// route and verify stages registered in an open pass registry
// (RegisterPass). A CompileRequest may compose them explicitly via its
// Pipeline field — swap the placer, skip decomposition, append
// verification — and a built-in name keys identically to its canned
// pipeline, so both forms share cache entries.
package ssync

import (
	"context"
	"sync"
	"time"

	"ssync/internal/auth"
	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/exp"
	"ssync/internal/mapping"
	"ssync/internal/noise"
	"ssync/internal/pass"
	"ssync/internal/qasm"
	"ssync/internal/sched"
	"ssync/internal/schedule"
	"ssync/internal/sim"
	"ssync/internal/store"
	"ssync/internal/workloads"
)

// ---- circuits ----

// Circuit is an ordered gate list over a fixed set of logical qubits.
type Circuit = circuit.Circuit

// Gate is one quantum instruction.
type Gate = circuit.Gate

// GateCondition is the classical control of an OpenQASM 2.0
// `if (creg==n) gate;` statement, attached to a Gate via its Cond field.
type GateCondition = circuit.Condition

// ParseQASM parses an OpenQASM 2.0 program.
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// WriteQASM renders a circuit as OpenQASM 2.0.
func WriteQASM(c *Circuit) string { return qasm.Write(c) }

// ---- workload generators (Table 2) ----

// Adder builds the Cuccaro ripple-carry adder on bits-bit operands.
func Adder(bits int) *Circuit { return workloads.Adder(bits) }

// QAOA builds a p-layer QAOA ansatz on the n-vertex path graph.
func QAOA(n, p int) *Circuit { return workloads.QAOA(n, p) }

// QFT builds the n-qubit quantum Fourier transform.
func QFT(n int) *Circuit { return workloads.QFT(n) }

// Heisenberg builds Trotterised Heisenberg-chain dynamics.
func Heisenberg(n, steps int) *Circuit { return workloads.Heisenberg(n, steps) }

// Benchmark builds a Table 2 benchmark by name, e.g. "QFT_24".
func Benchmark(name string) (*Circuit, error) { return workloads.Build(name) }

// ---- devices ----

// Topology is an immutable QCCD device description.
type Topology = device.Topology

// Trap is one linear trapping zone.
type Trap = device.Trap

// Segment is a shuttle path between two trap ends.
type Segment = device.Segment

// Placement is the mutable ion/slot assignment on a device.
type Placement = device.Placement

// GridDevice builds a G-series device (rows × cols traps, junction-routed).
func GridDevice(rows, cols, capacity int) *Topology { return device.Grid(rows, cols, capacity) }

// TopologyByName builds one of the paper's named topologies ("L-6",
// "G-2x3", "S-4", ...).
func TopologyByName(name string, capacity int) (*Topology, error) {
	return device.ByName(name, capacity)
}

// NewTopology assembles a custom device from traps and segments.
func NewTopology(name string, traps []Trap, segments []Segment) (*Topology, error) {
	return device.New(name, traps, segments)
}

// PaperCapacity returns the per-trap capacity the paper pairs with each
// named topology.
func PaperCapacity(name string) int { return device.PaperCapacity(name) }

// ---- compilation ----

// CompileConfig tunes the S-SYNC scheduler.
type CompileConfig = core.Config

// CompileResult is the output of a compilation.
type CompileResult = core.Result

// Schedule is a hardware-compatible op stream.
type Schedule = schedule.Schedule

// Op is one scheduled operation.
type Op = schedule.Op

// Counts aggregates shuttle/SWAP/gate tallies.
type Counts = schedule.Counts

// MappingConfig tunes initial qubit mapping.
type MappingConfig = mapping.Config

// MappingStrategy selects the first-level mapping.
type MappingStrategy = mapping.Strategy

// Mapping strategies (Sec. 3.4).
const (
	EvenDividedMapping = mapping.EvenDivided
	GatheringMapping   = mapping.Gathering
	STAMapping         = mapping.STA
)

// DefaultCompileConfig returns the paper's benchmark configuration.
func DefaultCompileConfig() CompileConfig { return core.DefaultConfig() }

// ---- simulation ----

// SimOptions configures simulated execution.
type SimOptions = sim.Options

// SimMetrics reports execution time and Eq. 4 success rate.
type SimMetrics = sim.Metrics

// NoiseParams bundles timing and heating constants (Sec. 4.1, Table 1).
type NoiseParams = noise.Params

// GateModel selects FM/PM/AM1/AM2 two-qubit gate implementations.
type GateModel = noise.GateModel

// Gate implementations (Fig. 13).
const (
	FMGate  = noise.FM
	PMGate  = noise.PM
	AM1Gate = noise.AM1
	AM2Gate = noise.AM2
)

// DefaultSimOptions uses the paper's simulation parameters.
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// DefaultNoiseParams returns the paper's evaluation constants.
func DefaultNoiseParams() NoiseParams { return noise.DefaultParams() }

// Simulate executes a compiled schedule on the device model.
func Simulate(s *Schedule, topo *Topology, opt SimOptions) SimMetrics {
	return sim.Run(s, topo, opt)
}

// VerifySchedule proves a compiled schedule is semantically equivalent to
// its source circuit under dense state-vector simulation (≤ 22 qubits).
func VerifySchedule(src *Circuit, s *Schedule, seed int64) error {
	return sim.VerifySchedule(src, s, seed)
}

// ---- experiments ----

// ExperimentOptions scales paper-experiment runs.
type ExperimentOptions = exp.Options

// RunExperiment regenerates a paper table or figure by name ("table1",
// "table2", "fig8" … "fig16", "ablation", or "all"), returning its textual
// report.
func RunExperiment(name string, opt ExperimentOptions) (string, error) {
	return exp.Run(name, opt)
}

// RunExperimentCSV regenerates an experiment's data rows as CSV.
func RunExperimentCSV(name string, opt ExperimentOptions) (string, error) {
	return exp.RunCSV(name, opt)
}

// ---- concurrent compilation engine ----

// Engine compiles requests concurrently with content-addressed result
// reuse and single-flight coalescing of identical in-flight requests.
type Engine = engine.Engine

// EngineOptions configures a new Engine (cache size, etc.).
type EngineOptions = engine.Options

// EngineStats snapshots engine and cache counters.
type EngineStats = engine.Stats

// CompileRequest is one compilation request: circuit, device, compiler
// name or pass pipeline, and optional configuration. It is the single input type
// of the compilation API, handled by Engine.Do (or the package-level Do).
type CompileRequest = engine.Request

// CompileResponse is one compilation outcome: the result plus its cache
// key, cache-hit and coalescing provenance.
type CompileResponse = engine.Response

// CompileKey is the content address of a CompileRequest: a sha256 over
// the request's canonical OpenQASM rendering, device layout and resolved
// execution plan. Two requests share a key exactly when a cached result
// for one answers the other.
type CompileKey = engine.Key

// Built-in compiler names, each a canned pass pipeline (a new strategy
// is a pipeline of registered passes, RegisterPass).
const (
	MuraliCompilerName        = engine.CompilerMurali
	DaiCompilerName           = engine.CompilerDai
	SSyncCompilerName         = engine.CompilerSSync
	SSyncAnnealedCompilerName = engine.CompilerSSyncAnnealed
)

// Do handles one CompileRequest on the process-wide DefaultEngine:
// pipeline dispatch, content-addressed result reuse, and single-flight
// coalescing of concurrent identical requests.
func Do(ctx context.Context, req CompileRequest) CompileResponse {
	return DefaultEngine().Do(ctx, req)
}

// ---- scheduling & backpressure ----

// Priority is a request's scheduling class. On a worker-bounded engine
// (EngineOptions.Workers > 0) the admission scheduler queues cache
// misses per class and hands freed worker slots out by class weight, so
// a flood of batch work cannot starve interactive requests; bounded
// class queues and deadline-aware admission shed overload with
// structured errors instead of letting it time out. Priority and
// CompileRequest.Deadline never enter the cache key: they select when a
// request runs, not what it computes.
type Priority = sched.Class

// The built-in priority classes, highest service share first.
// InteractivePriority is the default for a zero CompileRequest.Priority;
// CompilePool batches and portfolio races default their entrants to
// BatchPriority.
const (
	InteractivePriority = sched.Interactive
	BatchPriority       = sched.Batch
	BackgroundPriority  = sched.Background
)

// ErrQueueFull is the sentinel under queue-full load-shedding errors: a
// request's class queue was at its bound on arrival, so the request was
// rejected instead of queued (HTTP 429 from ssyncd).
var ErrQueueFull = sched.ErrQueueFull

// ErrDeadlineUnmeetable is the sentinel under deadline-admission
// errors: on arrival the queue-wait estimate already exceeded the
// request's deadline, so it was rejected immediately rather than queued
// as doomed work (HTTP 503 from ssyncd).
var ErrDeadlineUnmeetable = sched.ErrDeadline

// ShedRetryAfter extracts the retry hint carried by a load-shed error
// chain (ok=false for non-shed errors) — the same estimate ssyncd turns
// into Retry-After headers.
func ShedRetryAfter(err error) (time.Duration, bool) { return sched.RetryAfter(err) }

// SchedulerStats snapshots the admission scheduler: slot occupancy,
// total queue depth and per-class counters, taken under one lock.
// EngineStats.Sched carries it (nil on unbounded engines).
type SchedulerStats = sched.Stats

// SchedulerClassStats is one priority class's row in a SchedulerStats
// snapshot: depth, admitted/shed counts and queue-wait aggregates.
type SchedulerClassStats = sched.ClassStats

// ---- composable pass pipelines ----

// Pass is one pipeline stage: a named, deterministic transformation of
// the shared PassState. Register implementations with RegisterPass to
// make them addressable from CompileRequest.Pipeline (and from ssyncd's
// /v2 endpoints).
type Pass = pass.Pass

// PassState is the state a compilation threads through its pipeline:
// working circuit, device, resolved configurations, placement and
// result.
type PassState = pass.State

// PassSpec names a registered pass plus its opaque JSON options — one
// stage of CompileRequest.Pipeline.
type PassSpec = pass.Spec

// PassFactory builds a configured Pass from its options JSON.
type PassFactory = pass.Factory

// PassConfigUse declares which request-level defaults a pass reads from
// the PassState; custom passes may implement
// `ConfigUse() ssync.PassConfigUse` to keep irrelevant configuration out
// of their pipelines' cache keys (undeclared passes are assumed to read
// everything).
type PassConfigUse = pass.ConfigUse

// PassTiming records one executed pipeline stage: wall time and
// gate-count delta. CompileResult.PassTimings itemises a pipeline
// compilation with these.
type PassTiming = core.PassTiming

// Built-in pass names; the built-in compilers are canned pipelines over
// exactly these (BuiltinPipeline).
const (
	DecomposeBasisPass = pass.DecomposeBasis
	PlaceGreedyPass    = pass.PlaceGreedy
	PlaceAnnealedPass  = pass.PlaceAnnealed
	RouteSSyncPass     = pass.RouteSSync
	RouteMuraliPass    = pass.RouteMurali
	RouteDaiPass       = pass.RouteDai
	VerifyStatevecPass = pass.VerifyStatevec
)

// RegisterPass adds a named pass factory to the process-wide pass
// registry, making it addressable from CompileRequest.Pipeline (and from
// ssyncd's /v2 endpoints). Names must be unique and non-empty.
func RegisterPass(name string, factory PassFactory) error {
	return pass.Register(name, factory)
}

// Passes returns the registered pass names, sorted.
func Passes() []string { return pass.Names() }

// BuiltinPipeline returns the canned pass pipeline behind a built-in
// compiler name ("murali", "dai", "ssync", "ssync-annealed"), or
// ok=false for other names. A built-in name and its canned pipeline are
// the same compilation — identical results and cache keys — so the
// returned specs are the natural starting point for custom pipelines.
func BuiltinPipeline(name string) ([]PassSpec, bool) {
	return pass.BuiltinPipeline(name)
}

// CompilePool fans batches of requests across a fixed worker set.
type CompilePool = engine.Pool

// PortfolioVariant is one entrant in a portfolio race.
type PortfolioVariant = engine.Variant

// PortfolioOutcome reports a finished portfolio race.
type PortfolioOutcome = engine.RaceOutcome

// NewEngine returns a concurrent compilation engine with a tiered
// content-addressed result cache (in-memory LRU, optionally over a
// persistent disk tier) and, when EngineOptions.StageCacheSize enables
// it, per-stage pipeline prefix reuse. It panics on disk-tier open
// errors (only possible with EngineOptions.CacheDir set); use OpenEngine
// to handle those.
func NewEngine(opt EngineOptions) *Engine { return engine.New(opt) }

// OpenEngine is NewEngine with disk-tier errors surfaced: an engine
// whose EngineOptions.CacheDir names an unusable directory fails here
// instead of panicking. Engines opened over the same directory across
// restarts serve previously compiled requests from the disk tier
// without re-running any pass.
func OpenEngine(opt EngineOptions) (*Engine, error) { return engine.Open(opt) }

// TieredCacheStats breaks one of the engine's caches down per tier: the
// in-memory front and, for results, the optional persistent disk tier,
// snapshotted consistently under one lock. The stage-snapshot cache is
// memory-only.
type TieredCacheStats = store.TieredStats

// MemoryTierStats snapshots an in-memory LRU cache tier.
type MemoryTierStats = store.LRUStats

// DiskTierStats snapshots the persistent on-disk cache tier.
type DiskTierStats = store.DiskStats

// defaultEngine backs the package-level Do, batch and portfolio helpers
// so repeated calls share one result cache.
var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the lazily-created process-wide engine used by
// Do and CompilePortfolio. Batches run on it through
// CompilePool{Engine: DefaultEngine()}.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = engine.New(engine.Options{}) })
	return defaultEngine
}

// CompilePortfolio races several strategies for one circuit concurrently
// on the process-wide engine and returns the outcome with the best
// schedule (highest success rate, then fewest shuttles). A nil variants
// slice races DefaultPortfolio().
func CompilePortfolio(ctx context.Context, c *Circuit, topo *Topology, variants []PortfolioVariant) (*PortfolioOutcome, error) {
	return DefaultEngine().Race(ctx, c, topo, variants, engine.RaceOptions{})
}

// DefaultPortfolio returns the standard portfolio entrants: S-SYNC under
// each first-level mapping strategy, the commutation-aware scheduler,
// and the annealed mapper under its deterministic default seed.
func DefaultPortfolio() []PortfolioVariant { return engine.DefaultPortfolio() }

// ---- analysis & extensions ----

// Timeline is the timed per-qubit expansion of a schedule.
type Timeline = schedule.Timeline

// TimelineStats summarises utilisation and parallelism.
type TimelineStats = schedule.TimelineStats

// BuildTimeline assigns start/end times to every op of a schedule under
// the simulator's clock: the same op durations and start rule Simulate
// scores with.
func BuildTimeline(s *Schedule, p NoiseParams) *Timeline {
	return sim.Timeline(s, sim.Options{Params: p})
}

// Optimize applies semantics-preserving peephole simplifications
// (inverse-pair cancellation, rotation merging, identity removal).
func Optimize(c *Circuit) *Circuit { return circuit.Optimize(c) }

// HardwareCircuit lowers a compiled schedule to a circuit over physical
// ions with explicit SWAP gates; ionOf maps each logical qubit to the ion
// holding its final state.
func HardwareCircuit(s *Schedule) (hw *Circuit, ionOf []int, err error) {
	return core.HardwareCircuit(s)
}

// TrapProgram partitions a schedule's gates by executing trap — the unit a
// per-zone laser controller consumes.
func TrapProgram(s *Schedule, numTraps int) ([][]Op, error) {
	return core.TrapProgram(s, numTraps)
}

// RacetrackDevice builds an R-series device: n traps on a closed ring.
func RacetrackDevice(n, capacity int) *Topology { return device.Racetrack(n, capacity) }

// AnnealConfig tunes the simulated-annealing first-level mapper.
type AnnealConfig = mapping.AnnealConfig

// DefaultAnnealConfig returns annealer settings that converge quickly on
// every Table 2 workload.
func DefaultAnnealConfig() AnnealConfig { return mapping.DefaultAnnealConfig() }

// ---- access control & quotas ----

// Principal is an authenticated caller identity: a stable name plus its
// per-principal quota limits. ssyncd resolves one from each request's
// API key (-auth-keys) and threads it through the request context, where
// the engine's admission path reads it for per-principal scheduling
// accountability and priority clamping.
type Principal = auth.Principal

// AuthLimits is one principal's quota envelope: sustained request rate
// and burst, a concurrent in-flight cap, and the strongest priority
// class it may claim. Zero fields mean unlimited.
type AuthLimits = auth.Limits

// AuthConfig configures an APIKeyAuthenticator: the hashed-keys file
// (hot-reloaded on change), whether credential-less callers are
// admitted as the shared anonymous principal, and that principal's
// limits. Limits a key line leaves unset are unlimited.
type AuthConfig = auth.Config

// APIKeyAuthenticator resolves API keys to Principals from a
// hot-reloaded file of SHA-256 key hashes (one
// "<sha256-hex> <name> [rate=N] [burst=N] [inflight=N]
// [max-priority=class]" line per key). Lookups compare in constant
// time; edits to the file take effect on the next request without a
// restart, and a bad edit keeps the previous generation serving.
type APIKeyAuthenticator = auth.Authenticator

// NewAPIKeyAuthenticator opens an authenticator over cfg, loading the
// keys file strictly: a malformed file fails construction rather than
// silently serving an empty key set.
func NewAPIKeyAuthenticator(cfg AuthConfig) (*APIKeyAuthenticator, error) {
	return auth.NewAuthenticator(cfg)
}

// QuotaEnforcer meters admitted work per principal and degrades
// gracefully instead of hard-failing: an over-budget principal's
// requests are first demoted down the priority ladder (interactive →
// batch → background), and only shed — with a retry hint — once the
// principal is over budget even at background. Within-budget
// principals are never affected by a neighbour's flood.
type QuotaEnforcer = auth.Enforcer

// NewQuotaEnforcer returns an empty quota enforcer.
func NewQuotaEnforcer() *QuotaEnforcer { return auth.NewEnforcer() }

// HashAPIKey returns the lowercase SHA-256 hex digest of a plaintext
// API key — the form keys files store, so plaintext keys never rest on
// disk.
func HashAPIKey(key string) string { return auth.HashKey(key) }

// WithPrincipal returns ctx carrying the authenticated principal; the
// engine's admission path clamps request priority to the principal's
// cap and accounts scheduling per principal name.
func WithPrincipal(ctx context.Context, p *Principal) context.Context {
	return auth.WithPrincipal(ctx, p)
}

// ErrUnauthenticated is the sentinel under authentication failures on a
// service that requires credentials (HTTP 401 from ssyncd).
var ErrUnauthenticated = auth.ErrUnauthenticated

// ErrUnknownAPIKey is the sentinel under lookups of well-formed keys
// absent from the key set — a wrong key is always rejected, never
// downgraded to anonymous (HTTP 401 from ssyncd).
var ErrUnknownAPIKey = auth.ErrUnknownKey

// ErrOverQuota is the sentinel under quota-shed errors: the principal
// was over budget even at background priority, so the request was
// rejected with a retry hint instead of admitted (HTTP 429 from
// ssyncd). QuotaRetryAfter extracts the hint.
var ErrOverQuota = auth.ErrOverQuota

// QuotaRetryAfter extracts the retry hint carried by a quota-shed error
// chain (ok=false for other errors) — the same estimate ssyncd turns
// into Retry-After headers on auth 429s.
func QuotaRetryAfter(err error) (time.Duration, bool) { return auth.RetryAfter(err) }
