// Package pass opens the compiler black boxes into staged, composable
// pipelines. A compilation is a sequence of passes — decompose, place,
// route/schedule, verify — each a named transformation of a shared State
// (working circuit, placement, result). Passes register process-wide by
// name — the engine's one extension point — requests address them as
// ordered Spec lists with opaque JSON options, and the four built-in
// compilers are canned pipelines over the same registry — so "swap the
// placer", "skip decomposition" or "verify on demand" is a pipeline
// edit, and a new strategy is a new pass, not a new compiler.
package pass

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/mapping"
	"ssync/internal/obs"
)

// State is the shared pipeline state a compilation threads through its
// passes. Passes communicate exclusively through it: a decomposition pass
// rewrites Circuit, placement passes set Placement, routing passes
// consume both and set Result, and verification passes check Result
// against Source.
type State struct {
	// Source is the request's original circuit. Passes must treat it as
	// read-only; verification passes check Result against it.
	Source *circuit.Circuit
	// Circuit is the working circuit. Passes that rewrite it (e.g.
	// decompose-basis) replace the pointer rather than mutating in place,
	// so Source stays untouched.
	Circuit *circuit.Circuit
	// Topo is the target device.
	Topo *device.Topology
	// Config is the resolved S-SYNC scheduler configuration (the request's
	// Config, or core.DefaultConfig()). Passes read it for defaults; their
	// options may override individual knobs.
	Config core.Config
	// Anneal is the resolved annealer configuration (the request's Anneal,
	// or mapping.DefaultAnnealConfig()).
	Anneal mapping.AnnealConfig
	// Placement is the current initial placement, set by placement passes
	// and consumed by routing passes.
	Placement *device.Placement
	// Result is the compilation output, set by routing passes.
	Result *core.Result
	// Timings accumulates one entry per executed pass; Run appends them
	// and copies the final list onto Result.PassTimings.
	Timings []core.PassTiming
}

// gateCount is the working gate count the per-pass deltas are measured
// against: scheduled ops once a routing pass has produced a result,
// source-circuit gates before.
func (st *State) gateCount() int {
	if st.Result != nil && st.Result.Schedule != nil {
		return len(st.Result.Schedule.Ops)
	}
	if st.Circuit != nil {
		return len(st.Circuit.Gates)
	}
	return 0
}

// Pass is one pipeline stage: a named transformation of the shared State.
// Implementations must be deterministic for identical State inputs (the
// engine content-addresses pipeline results) and should poll ctx in long
// loops so cancellation and per-request timeouts take effect.
type Pass interface {
	Name() string
	Run(ctx context.Context, st *State) error
}

// Signer is optionally implemented by passes whose options affect their
// output. Signature must render the pass's effective configuration
// deterministically; it joins the engine's cache key, so two passes with
// equal signatures must behave identically. Passes without it are hashed
// via their %#v rendering — flat option structs get that for free, but a
// pass holding pointers or maps must implement Signer itself.
type Signer interface {
	Signature() string
}

// Signature renders p's cache-key contribution.
func Signature(p Pass) string {
	if s, ok := p.(Signer); ok {
		return s.Signature()
	}
	return fmt.Sprintf("%#v", p)
}

// ConfigUse declares which request-level defaults a pass reads from the
// State. The engine hashes the resolved scheduler/annealer
// configurations into a pipeline's cache keys only as far as some stage
// actually reads them — so e.g. a baseline pipeline is not fragmented by
// an irrelevant Config on the request, and a decompose→place stage
// prefix (which reads only the mapping sub-configuration) keeps one
// prefix key across requests that vary scheduler knobs.
type ConfigUse struct {
	// Config reports that the pass reads State.Config beyond its Mapping
	// sub-configuration (scheduler knobs); it implies the full Config —
	// Mapping included — joins the cache key.
	Config bool
	// Mapping reports that the pass reads State.Config.Mapping (and
	// nothing else of the scheduler configuration). Redundant when Config
	// is set.
	Mapping bool
	// Anneal reports that the pass reads State.Anneal.
	Anneal bool
}

// ConfigUser is optionally implemented by passes to declare their
// ConfigUse. Passes without it are assumed to read every configuration —
// the safe default for custom passes, which see the full State.
type ConfigUser interface {
	ConfigUse() ConfigUse
}

// UseOf returns p's declared ConfigUse, assuming full use for passes
// that do not declare one.
func UseOf(p Pass) ConfigUse {
	if u, ok := p.(ConfigUser); ok {
		return u.ConfigUse()
	}
	return ConfigUse{Config: true, Mapping: true, Anneal: true}
}

// PipelineUse folds the ConfigUse of every stage.
func PipelineUse(passes []Pass) ConfigUse {
	var use ConfigUse
	for _, p := range passes {
		u := UseOf(p)
		use.Config = use.Config || u.Config
		use.Mapping = use.Mapping || u.Mapping
		use.Anneal = use.Anneal || u.Anneal
	}
	return use
}

// Spec names a registered pass plus its opaque JSON options — the wire
// and request form of one pipeline stage.
type Spec struct {
	// Name addresses the pass registry.
	Name string `json:"name"`
	// Options is the pass-specific configuration, decoded by the pass's
	// factory; omitted or null means defaults. Unknown fields are
	// rejected.
	Options json.RawMessage `json:"options,omitempty"`
}

// Factory builds a configured Pass instance from its options JSON. A nil
// or empty options document selects defaults; factories must reject
// unknown fields so a typo cannot silently select defaults.
type Factory func(options json.RawMessage) (Pass, error)

// UnknownPassError reports a Spec naming no registered pass. Known
// carries the registered names at lookup time, sorted.
type UnknownPassError struct {
	Name  string
	Known []string
}

func (e *UnknownPassError) Error() string {
	return fmt.Sprintf("pass: unknown pass %q (registered: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// registry is the process-wide pass table: a plain mutex, lookups copy
// the factory out under the lock.
var registry = struct {
	sync.Mutex
	m map[string]Factory
}{m: make(map[string]Factory)}

// Register adds a named pass factory to the process-wide registry, making
// it addressable from every pipeline Spec (and from ssyncd's /v2
// endpoints). Names are case-sensitive, must be non-empty, and may not
// collide with an existing entry; factory must be non-nil.
func Register(name string, factory Factory) error {
	if name == "" {
		return fmt.Errorf("pass: Register with empty pass name")
	}
	if factory == nil {
		return fmt.Errorf("pass: Register(%q) with nil Factory", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("pass: %q already registered", name)
	}
	registry.m[name] = factory
	return nil
}

// MustRegister is Register that panics on error; intended for init-time
// registration of passes that must exist.
func MustRegister(name string, factory Factory) {
	if err := Register(name, factory); err != nil {
		panic(err)
	}
}

// Names returns the registered pass names, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Registered reports whether name is in the pass registry.
func Registered(name string) bool {
	registry.Lock()
	defer registry.Unlock()
	_, ok := registry.m[name]
	return ok
}

// Build resolves every spec against the registry and constructs the
// configured pass instances, position-aligned with the input. It fails on
// the first unknown name (as *UnknownPassError) or rejected options, so
// callers validate a whole pipeline in one call before running any of it.
func Build(specs []Spec) ([]Pass, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("pass: empty pipeline")
	}
	passes := make([]Pass, len(specs))
	for i, s := range specs {
		registry.Lock()
		factory, ok := registry.m[s.Name]
		registry.Unlock()
		if !ok {
			return nil, &UnknownPassError{Name: s.Name, Known: Names()}
		}
		p, err := factory(s.Options)
		if err != nil {
			return nil, fmt.Errorf("pass: stage %d (%s): %w", i, s.Name, err)
		}
		passes[i] = p
	}
	return passes, nil
}

// Run executes the pipeline over st, timing every pass and recording the
// gate-count delta it caused. The pipeline must leave a Result in the
// state (i.e. include a routing pass); Run stamps the accumulated
// per-pass timings and the total wall time onto it.
func Run(ctx context.Context, passes []Pass, st *State) (*core.Result, error) {
	return RunFrom(ctx, passes, st, 0, nil)
}

// RunFrom executes passes[start:] over st — the resume form of Run for
// per-stage caching: the caller restores st to the boundary after stage
// start-1 (the engine keeps such boundaries in memory) and the pipeline
// continues from there, with st.Timings already carrying the restored
// stages' timings so the final Result itemises the whole pipeline.
// Passes replace st.Circuit rather than mutate it, so a restored State
// may share its working circuit with others. after, when non-nil, is
// invoked synchronously at the boundary after each executed stage —
// before the next stage can mutate the state — which is where the engine
// captures prefix snapshots. Result.CompileTime covers only the stages
// this call executed (a reused prefix cost nothing); Result.PassTimings
// still itemises every stage, restored ones at their original cost.
func RunFrom(ctx context.Context, passes []Pass, st *State, start int, after func(stage int, st *State)) (*core.Result, error) {
	if st.Circuit == nil || st.Topo == nil {
		return nil, fmt.Errorf("pass: pipeline state needs both a circuit and a topology")
	}
	if start < 0 || start >= len(passes) {
		return nil, fmt.Errorf("pass: resume stage %d out of range for a %d-stage pipeline", start, len(passes))
	}
	if st.Source == nil {
		st.Source = st.Circuit
	}
	// The request-scoped logger (if the edge attached one) carries the
	// trace ID, so per-pass lines correlate to the request that ran
	// them; the debug guard keeps the un-instrumented path free.
	log := obs.Logger(ctx)
	debug := log.Enabled(ctx, slog.LevelDebug)
	tr := obs.TraceFrom(ctx)
	parent := obs.SpanID(ctx)
	wall := time.Now()
	for i := start; i < len(passes); i++ {
		p := passes[i]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := st.gateCount()
		passStart := time.Now()
		if err := p.Run(ctx, st); err != nil {
			return nil, fmt.Errorf("pass: stage %d (%s): %w", i, p.Name(), err)
		}
		t := core.PassTiming{
			Pass:      p.Name(),
			Duration:  time.Since(passStart),
			GateDelta: st.gateCount() - before,
		}
		st.Timings = append(st.Timings, t)
		tr.Child(parent, "pass:"+t.Pass, passStart, t.Duration)
		if debug {
			log.Debug("pass done", "pass", t.Pass, "stage", i,
				"dur_ms", float64(t.Duration)/float64(time.Millisecond),
				"gate_delta", t.GateDelta)
		}
		if after != nil {
			after(i, st)
		}
	}
	if st.Result == nil {
		return nil, fmt.Errorf("pass: pipeline produced no result; add a routing pass (e.g. %s)", RouteSSync)
	}
	st.Result.PassTimings = append([]core.PassTiming(nil), st.Timings...)
	st.Result.CompileTime = time.Since(wall)
	return st.Result, nil
}
