package engine

import (
	"context"
	"fmt"
	"time"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/mapping"
	"ssync/internal/sched"
	"ssync/internal/sim"
	"ssync/internal/store"
)

// Variant is one entrant in a compilation portfolio: a built-in
// compiler plus optional configuration.
type Variant struct {
	Name     string
	Compiler string
	Config   *core.Config
	// Anneal tunes the "ssync-annealed" compiler; nil means
	// mapping.DefaultAnnealConfig() (deterministic seed).
	Anneal *mapping.AnnealConfig
}

// request converts the variant into a compilation request for c on topo.
func (v Variant) request(c *circuit.Circuit, topo *device.Topology) Request {
	return Request{
		Label:    v.Name,
		Circuit:  c,
		Topo:     topo,
		Compiler: v.Compiler,
		Config:   v.Config,
		Anneal:   v.Anneal,
	}
}

// DefaultPortfolio returns the standard entrant set: S-SYNC under each of
// the paper's three first-level mapping strategies (Sec. 3.4), the
// commutation-aware scheduler extension, and the simulated-annealing
// mapper under its deterministic default seed.
func DefaultPortfolio() []Variant {
	withStrategy := func(s mapping.Strategy) *core.Config {
		cfg := core.DefaultConfig()
		cfg.Mapping.Strategy = s
		return &cfg
	}
	commuting := core.DefaultConfig()
	commuting.CommutationAware = true
	annealed := mapping.DefaultAnnealConfig()
	return []Variant{
		{Name: "ssync/gathering", Compiler: CompilerSSync, Config: withStrategy(mapping.Gathering)},
		{Name: "ssync/even-divided", Compiler: CompilerSSync, Config: withStrategy(mapping.EvenDivided)},
		{Name: "ssync/sta", Compiler: CompilerSSync, Config: withStrategy(mapping.STA)},
		{Name: "ssync/commutation", Compiler: CompilerSSync, Config: &commuting},
		{Name: "ssync/annealed", Compiler: CompilerSSyncAnnealed, Anneal: &annealed},
	}
}

// RaceOutcome reports a finished portfolio race. Results and Metrics are
// index-aligned with the variant list; variants that failed carry their
// error and a zero Metrics.
type RaceOutcome struct {
	WinnerIndex int
	Winner      Response
	Results     []Response
	Metrics     []sim.Metrics
}

// RaceOptions tunes a portfolio race.
type RaceOptions struct {
	// Workers bounds concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// Timeout is the per-variant compile bound; 0 means unbounded.
	Timeout time.Duration
	// Priority is the scheduling class the entrants compile under; the
	// zero value selects sched.Batch, so a portfolio fanned out on a
	// worker-bounded engine queues behind its class weight instead of
	// monopolizing every slot against interactive traffic.
	Priority sched.Class
	// Deadline, when non-zero, is the absolute completion deadline every
	// entrant shares; deadline-aware admission may shed entrants that
	// could no longer meet it.
	Deadline time.Time
	// Metrics, when non-nil, caches scoring-simulation results
	// (sim.DefaultOptions) per request key, so re-racing cached compiles
	// skips simulation too.
	Metrics *store.LRU[sim.Metrics]
}

// Race compiles c for topo under every variant concurrently and returns
// the outcome with the best schedule: highest simulated success rate,
// ties broken by fewer shuttles, then fewer SWAPs, then variant order.
// It fails only when every variant fails.
func (e *Engine) Race(ctx context.Context, c *circuit.Circuit, topo *device.Topology, variants []Variant, opt RaceOptions) (*RaceOutcome, error) {
	if len(variants) == 0 {
		variants = DefaultPortfolio()
	}
	reqs := make([]Request, len(variants))
	for i, v := range variants {
		reqs[i] = v.request(c, topo)
	}
	pool := Pool{Engine: e, Workers: opt.Workers, Timeout: opt.Timeout, Priority: opt.Priority, Deadline: opt.Deadline}
	results := pool.RunRequests(ctx, reqs)

	out := &RaceOutcome{WinnerIndex: -1, Results: results, Metrics: make([]sim.Metrics, len(results))}
	var firstErr error
	for i, r := range results {
		if r.Err != nil {
			if firstErr == nil {
				firstErr = r.Err
			}
			continue
		}
		// A zero key means the engine ran cacheless and computed no content
		// address; bypass the metrics cache rather than share one slot.
		useCache := opt.Metrics != nil && r.Key != Key{}
		m, cached := sim.Metrics{}, false
		if useCache {
			m, cached = opt.Metrics.Get(store.Key(r.Key))
		}
		if !cached {
			m = sim.Run(r.Result.Schedule, topo, sim.DefaultOptions())
			if useCache {
				opt.Metrics.Put(store.Key(r.Key), m)
			}
		}
		out.Metrics[i] = m
		if out.WinnerIndex < 0 || raceBetter(out, i, out.WinnerIndex) {
			out.WinnerIndex = i
		}
	}
	if out.WinnerIndex < 0 {
		return nil, fmt.Errorf("engine: every portfolio variant failed: %w", firstErr)
	}
	out.Winner = results[out.WinnerIndex]
	return out, nil
}

// raceBetter reports whether entrant i strictly beats entrant j.
func raceBetter(out *RaceOutcome, i, j int) bool {
	mi, mj := out.Metrics[i], out.Metrics[j]
	if mi.SuccessRate != mj.SuccessRate {
		return mi.SuccessRate > mj.SuccessRate
	}
	ci, cj := out.Results[i].Result.Counts, out.Results[j].Result.Counts
	if ci.Shuttles != cj.Shuttles {
		return ci.Shuttles < cj.Shuttles
	}
	return ci.Swaps < cj.Swaps
}
