// Package exp regenerates every table and figure of the paper's evaluation
// (Sec. 5): benchmark comparisons against the Murali and Dai baselines
// (Figs. 8–10), the topology/capacity study (Fig. 11), the initial-mapping
// study (Fig. 12), gate-implementation analysis (Fig. 13), hyperparameter
// sensitivity (Fig. 14), compilation-time scaling (Fig. 15), the optimality
// analysis (Fig. 16), and Tables 1–2. Each runner returns structured rows
// and renders the same series the paper plots.
package exp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/mapping"
	"ssync/internal/noise"
	"ssync/internal/sched"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// CompilerName identifies one of the three evaluated compilers by its
// engine compiler name, so the experiment grid and the batch/service
// layers share one dispatch.
type CompilerName = string

const (
	Murali = engine.CompilerMurali
	Dai    = engine.CompilerDai
	SSync  = engine.CompilerSSync
)

// Compilers lists the evaluation order used in the figures.
var Compilers = []CompilerName{Murali, Dai, SSync}

// CompileWith runs the named compiler's canned pipeline with default
// configuration.
func CompileWith(name CompilerName, c *circuit.Circuit, topo *device.Topology) (*core.Result, error) {
	return engine.Direct(engine.Request{Circuit: c, Topo: topo, Compiler: name})
}

// Options scales the experiments: Quick shrinks workloads and sweeps to
// test/bench scale while exercising the same code paths.
type Options struct {
	Quick bool
}

// Cell is one (application, topology, compiler) measurement, carrying
// everything Figs. 8, 9 and 10 plot.
type Cell struct {
	App      string
	Topo     string
	Compiler CompilerName

	Shuttles    int
	Swaps       int
	Success     float64
	LogSuccess  float64
	ExecTime    float64 // µs
	CompileTime time.Duration
}

// runCell compiles app on topo with the given compiler and simulates with
// FM gates (the Figs. 8–10 setting).
func runCell(name CompilerName, app string, c *circuit.Circuit, topo *device.Topology) (Cell, error) {
	res, err := CompileWith(name, c, topo)
	if err != nil {
		return Cell{}, fmt.Errorf("exp: %s on %s with %s: %w", app, topo.Name, name, err)
	}
	return cellFromResult(name, app, topo, res), nil
}

// cellFromResult scores one compiled grid entry — the single place a
// Cell is built, shared by the serial and pooled paths so they cannot
// diverge.
func cellFromResult(name CompilerName, app string, topo *device.Topology, res *core.Result) Cell {
	m := sim.Run(res.Schedule, topo, sim.DefaultOptions())
	return Cell{
		App: app, Topo: topo.Name, Compiler: name,
		Shuttles: res.Counts.Shuttles, Swaps: res.Counts.Swaps,
		Success: m.SuccessRate, LogSuccess: m.LogSuccess,
		ExecTime: m.ExecutionTime, CompileTime: res.CompileTime,
	}
}

// comparisonApps returns the Fig. 8–10 benchmark grid: application name →
// topology list (exact paper panels), or a reduced grid in quick mode.
func comparisonApps(opt Options) (map[string][]string, func(string) (*circuit.Circuit, error)) {
	if opt.Quick {
		apps := map[string][]string{
			"QFT_12":  {"S-4", "G-2x2"},
			"Adder_4": {"S-4", "G-2x2"},
			"BV_12":   {"S-4"},
		}
		return apps, workloads.Build
	}
	apps := map[string][]string{
		"QFT_24":   {"S-4", "L-6", "G-2x2", "G-2x3", "G-3x3"},
		"Adder_32": {"S-4", "L-4", "G-2x2", "G-2x3", "G-3x3"},
		"QAOA_64":  {"S-4", "L-4", "L-6", "G-2x2", "G-2x3", "G-3x3"},
		"ALT_64":   {"S-4", "G-2x2", "G-2x3", "G-3x3"},
		"QFT_64":   {"S-4", "G-2x2", "G-3x3"},
		"BV_64":    {"S-4", "L-6", "G-2x3", "G-3x3"},
	}
	return apps, workloads.Build
}

// quickCapacity mirrors device.PaperCapacity at quick scale.
func quickCapacity(string) int { return 8 }

// ResetCaches clears memoised experiment results so benchmarks can measure
// repeated full runs.
func ResetCaches() {
	comparisonMu.Lock()
	defer comparisonMu.Unlock()
	comparisonCache = map[bool][]Cell{}
}

// comparisonCache memoises the Figs. 8–10 grid so fig8/fig9/fig10 (and
// "all") share one compilation pass. The grid is deterministic, so caching
// is safe; compile times in cells reflect the first run. comparisonMu
// guards it and is held across a computation, so concurrent callers
// compile each grid once.
var (
	comparisonMu    sync.Mutex
	comparisonCache = map[bool][]Cell{}
)

// Comparison runs the full Figs. 8–10 grid: every benchmark × topology ×
// compiler cell, in deterministic order, fanned across an engine.Pool.
// Results are memoised per scale. It is safe for concurrent use.
func Comparison(opt Options) ([]Cell, error) {
	comparisonMu.Lock()
	defer comparisonMu.Unlock()
	if cells, ok := comparisonCache[opt.Quick]; ok {
		return cells, nil
	}
	cells, err := comparison(opt)
	if err == nil {
		comparisonCache[opt.Quick] = cells
	}
	return cells, err
}

// comparisonRequests enumerates the grid as compilation requests in the
// exact order the serial loops visited it: app (sorted) → topology →
// compiler.
func comparisonRequests(opt Options) ([]engine.Request, error) {
	apps, build := comparisonApps(opt)
	capOf := device.PaperCapacity
	if opt.Quick {
		capOf = quickCapacity
	}
	var reqs []engine.Request
	for _, app := range sortedKeys(apps) {
		c, err := build(app)
		if err != nil {
			return nil, err
		}
		for _, tn := range apps[app] {
			topo, err := device.ByName(tn, capOf(tn))
			if err != nil {
				return nil, err
			}
			if topo.TotalCapacity() < c.NumQubits {
				continue // paper omits infeasible panels too
			}
			for _, comp := range Compilers {
				reqs = append(reqs, engine.Request{
					Label:    app,
					Circuit:  c,
					Topo:     topo,
					Compiler: comp,
				})
			}
		}
	}
	return reqs, nil
}

// comparison compiles the grid concurrently through the request API. The
// compilers are deterministic, so the cells match comparisonSerial
// field-for-field — except CompileTime, which is wall-clock measured
// under GOMAXPROCS-way contention here; treat the compile_time column as
// throughput context, and use fig15 (still serial) for the paper's
// compile-time scaling.
func comparison(opt Options) ([]Cell, error) {
	reqs, err := comparisonRequests(opt)
	if err != nil {
		return nil, err
	}
	// Experiment grids are offline sweeps: background class, so sharing
	// an engine with live traffic can never starve it.
	pool := engine.Pool{Engine: engine.New(engine.Options{CacheSize: -1}), Priority: sched.Background}
	results := pool.RunRequests(context.Background(), reqs)
	cells := make([]Cell, 0, len(results))
	for i, r := range results {
		req := reqs[i]
		if r.Err != nil {
			return nil, fmt.Errorf("exp: %s on %s with %s: %w", req.Label, req.Topo.Name, req.Compiler, r.Err)
		}
		cells = append(cells, cellFromResult(r.Compiler, req.Label, req.Topo, r.Result))
	}
	return cells, nil
}

// comparisonSerial is the original single-goroutine grid walk, kept as
// the reference implementation the pool path is tested against.
func comparisonSerial(opt Options) ([]Cell, error) {
	reqs, err := comparisonRequests(opt)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, req := range reqs {
		cell, err := runCell(req.Compiler, req.Label, req.Circuit, req.Topo)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// ssyncWithMapping compiles with S-SYNC under a specific initial mapping.
func ssyncWithMapping(strategy mapping.Strategy, c *circuit.Circuit, topo *device.Topology) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.Mapping.Strategy = strategy
	return core.Compile(cfg, c, topo)
}

// simulateWithModel reruns a compiled schedule under a gate implementation.
func simulateWithModel(res *core.Result, topo *device.Topology, model noise.GateModel) sim.Metrics {
	opt := sim.DefaultOptions()
	opt.Params.Model = model
	return sim.Run(res.Schedule, topo, opt)
}
