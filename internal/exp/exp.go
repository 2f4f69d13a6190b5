// Package exp regenerates every table and figure of the paper's evaluation
// (Sec. 5): benchmark comparisons against the Murali and Dai baselines
// (Figs. 8–10), the topology/capacity study (Fig. 11), the initial-mapping
// study (Fig. 12), gate-implementation analysis (Fig. 13), hyperparameter
// sensitivity (Fig. 14), compilation-time scaling (Fig. 15), the optimality
// analysis (Fig. 16), and Tables 1–2. Each figure is a list of panels and
// compiler variants, compiled by one runner (compile), plus its renderer;
// one registry names every experiment and gives its text and its CSV
// from the same rows.
package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// The three evaluated compilers, by engine compiler name.
const (
	Murali = engine.CompilerMurali
	Dai    = engine.CompilerDai
	SSync  = engine.CompilerSSync
)

// Compilers lists the evaluation order used in the figures.
var Compilers = []string{Murali, Dai, SSync}

// compilerVariants are Compilers as runner variants, each under its
// default configuration.
func compilerVariants(names ...string) []engine.Variant {
	vs := make([]engine.Variant, len(names))
	for i, n := range names {
		vs[i] = engine.Variant{Name: n, Compiler: n}
	}
	return vs
}

// Options scales the experiments: Quick shrinks workloads and sweeps to
// test/bench scale while exercising the same code paths.
type Options struct {
	Quick bool
}

// Cell is one compiled (panel, variant) point, scored under
// sim.DefaultOptions(): everything Figs. 8–12, 14 and 15 and the
// ablation plot. Figs. 13 and 16 re-simulate the same schedule, one cell
// per option set.
type Cell struct {
	workloads.Panel
	// Variant names the compiler variant: the compiler in Figs. 8–10
	// and 15, the initial mapping in Fig. 12, the parameter in Fig. 14,
	// the gate model or idealisation in Figs. 13 and 16.
	Variant string

	Shuttles    int
	Swaps       int
	Fallbacks   int
	Success     float64
	LogSuccess  float64
	ExecTime    float64 // µs
	CompileTime time.Duration

	res  *core.Result
	topo *device.Topology
}

// compile is every experiment's one compile path. It builds each panel,
// skips those with fewer slots than qubits (the paper omits them too),
// compiles each remaining panel under every variant through one
// cacheless engine.Pool, and scores each schedule under
// sim.DefaultOptions(). Cells come panel by panel, variants in order.
// workers <= 0 selects GOMAXPROCS; one worker keeps compile times
// serial.
func compile(panels []workloads.Panel, variants []engine.Variant, workers int) ([]Cell, error) {
	var reqs []engine.Request
	var at []workloads.Panel
	// Panels of one application share its circuit: building QFT_64 or
	// Heisenberg_48 costs tens of milliseconds, and a sweep repeats each
	// application on dozens of devices.
	circuits := map[workloads.Panel]*circuit.Circuit{} // keyed by App and Size
	for _, p := range panels {
		app := workloads.Panel{App: p.App, Size: p.Size}
		c, ok := circuits[app]
		if !ok {
			var err error
			if c, err = p.Circuit(); err != nil {
				return nil, err
			}
			circuits[app] = c
		}
		topo, err := device.ByName(p.Topo, p.Capacity)
		if err != nil {
			return nil, err
		}
		if topo.TotalCapacity() < c.NumQubits {
			continue
		}
		for _, v := range variants {
			reqs = append(reqs, engine.Request{
				Label: v.Name, Circuit: c, Topo: topo,
				Compiler: v.Compiler, Config: v.Config, Anneal: v.Anneal,
			})
			at = append(at, p)
		}
	}
	pool := engine.Pool{Workers: workers}
	cells := make([]Cell, len(reqs))
	for i, r := range pool.RunRequests(context.Background(), reqs) {
		req := reqs[i]
		if r.Err != nil {
			return nil, fmt.Errorf("exp: %s on %s with %s: %w", at[i].App, req.Topo.Name, req.Label, r.Err)
		}
		m := sim.Run(r.Result.Schedule, req.Topo, sim.DefaultOptions())
		cells[i] = Cell{
			Panel: at[i], Variant: req.Label,
			Shuttles: r.Result.Counts.Shuttles, Swaps: r.Result.Counts.Swaps, Fallbacks: r.Result.Fallbacks,
			Success: m.SuccessRate, LogSuccess: m.LogSuccess, ExecTime: m.ExecutionTime,
			CompileTime: r.Result.CompileTime,
			res:         r.Result, topo: req.Topo,
		}
	}
	return cells, nil
}

// resimulate scores each cell's schedule again under each option set,
// giving one cell per (cell, option set) with Variant naming the set.
func resimulate(cells []Cell, names []string, opts []sim.Options) []Cell {
	var out []Cell
	for _, c := range cells {
		for i, o := range opts {
			m := sim.Run(c.res.Schedule, c.topo, o)
			r := c
			r.Variant, r.Success, r.LogSuccess, r.ExecTime = names[i], m.SuccessRate, m.LogSuccess, m.ExecutionTime
			out = append(out, r)
		}
	}
	return out
}

// comparisonCache memoises the Figs. 8–10 grid per scale so fig8, fig9
// and fig10 (and "all") share one compilation pass. The grid is
// deterministic, so caching is safe; compile times in cells reflect the
// first run. comparisonMu guards it and is held across a computation, so
// concurrent callers compile each grid once.
var (
	comparisonMu    sync.Mutex
	comparisonCache = map[bool][]Cell{}
)

// ResetCaches clears memoised experiment results so benchmarks can measure
// repeated full runs.
func ResetCaches() {
	comparisonMu.Lock()
	defer comparisonMu.Unlock()
	comparisonCache = map[bool][]Cell{}
}

// Comparison runs the Figs. 8–10 grid: every panel of
// workloads.ComparisonPanels under each of Compilers, compiled
// concurrently. CompileTime is therefore wall-clock under contention;
// Fig. 15 carries the serial compile-time measurements. Results are
// memoised per scale without their schedules. It is safe for concurrent
// use.
func Comparison(opt Options) ([]Cell, error) {
	comparisonMu.Lock()
	defer comparisonMu.Unlock()
	if cells, ok := comparisonCache[opt.Quick]; ok {
		return cells, nil
	}
	cells, err := compile(workloads.ComparisonPanels(opt.Quick), compilerVariants(Compilers...), 0)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].res, cells[i].topo = nil, nil
	}
	comparisonCache[opt.Quick] = cells
	return cells, nil
}

// experiment is one registry entry: run regenerates the experiment and
// returns its text report and its CSV records, both from the same rows.
// header is the CSV header; nil means the experiment has no CSV form.
type experiment struct {
	name   string
	header []string
	run    func(Options) (string, [][]string, error)
}

// entry builds a registry entry from a runner returning typed rows and
// the function rendering one row as a CSV record.
func entry[R any](name string, header []string, run func(Options) (string, []R, error), record func(R) []string) experiment {
	return experiment{name, header, func(opt Options) (string, [][]string, error) {
		text, rows, err := run(opt)
		records := make([][]string, len(rows))
		for i, r := range rows {
			records[i] = record(r)
		}
		return text, records, err
	}}
}

// registry lists every experiment in report order. The trailing
// "ablation" and "passes" entries are this repository's own studies
// (design choices; pipeline-stage breakdown), not paper figures.
var registry = []experiment{
	{name: "table1", run: func(Options) (string, [][]string, error) { return Table1(), nil, nil }},
	entry("table2", []string{"application", "qubits", "two_qubit_gates", "communication"},
		func(Options) (string, []Table2Row, error) { return Table2() },
		func(r Table2Row) []string {
			return []string{r.Name, itoa(r.Qubits), itoa(r.TwoQubitGates), r.Communication}
		}),
	// The grid compiles concurrently, so per-cell compile time is
	// wall-clock under contention, as the column name says.
	entry("fig8", comparisonHeader, comparisonFigure("Fig. 8 — Number of shuttles (lower is better)", "shuttles"), comparisonRecord),
	entry("fig9", comparisonHeader, comparisonFigure("Fig. 9 — Number of SWAP gates (lower is better)", "swaps"), comparisonRecord),
	entry("fig10", comparisonHeader, comparisonFigure("Fig. 10 — Success rate (higher is better)", "success"), comparisonRecord),
	entry("fig11", []string{"application", "topology", "total_capacity", "success", "exec_time_us"}, Fig11,
		func(c Cell) []string {
			return []string{c.App, c.Topo, itoa(c.topo.TotalCapacity()), ftoa(c.Success), ftoa(c.ExecTime)}
		}),
	entry("fig12", []string{"application", "size", "mapping", "shuttles", "swaps", "exec_time_us", "success"}, Fig12,
		func(c Cell) []string {
			return []string{c.App, itoa(c.Size), c.Variant, itoa(c.Shuttles), itoa(c.Swaps), ftoa(c.ExecTime), ftoa(c.Success)}
		}),
	entry("fig13", []string{"application", "gate_model", "success"}, Fig13, successRecord),
	entry("fig14", []string{"application", "size", "param", "success"}, Fig14,
		func(c Cell) []string { return []string{c.App, itoa(c.Size), c.Variant, ftoa(c.Success)} }),
	entry("fig15", []string{"application", "size", "compiler", "compile_time_s"}, Fig15,
		func(c Cell) []string { return []string{c.App, itoa(c.Size), c.Variant, ftoa(c.CompileTime.Seconds())} }),
	entry("fig16", []string{"application", "scenario", "success"}, Fig16, successRecord),
	entry("ablation", []string{"application", "topology", "variant", "shuttles", "swaps", "success", "fallbacks"}, Ablation,
		func(c Cell) []string {
			return []string{c.App, c.Topo, c.Variant, itoa(c.Shuttles), itoa(c.Swaps), ftoa(c.Success), itoa(c.Fallbacks)}
		}),
	entry("passes", []string{"application", "topology", "compiler", "stage", "pass", "time_ms", "gate_delta"}, PassBreakdown,
		func(r PassRow) []string {
			return []string{r.App, r.Topo, r.Compiler, itoa(r.Stage), r.Pass,
				ftoa(float64(r.Duration.Nanoseconds()) / 1e6), itoa(r.GateDelta)}
		}),
}

var comparisonHeader = []string{"application", "topology", "compiler", "shuttles", "swaps", "success", "exec_time_us", "compile_time_s_concurrent"}

func comparisonRecord(c Cell) []string {
	return []string{c.App, c.Topo, c.Variant, itoa(c.Shuttles), itoa(c.Swaps),
		ftoa(c.Success), ftoa(c.ExecTime), ftoa(c.CompileTime.Seconds())}
}

func successRecord(c Cell) []string { return []string{c.App, c.Variant, ftoa(c.Success)} }

func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// Run executes a named experiment (a registry name, or "all" for every
// one in report order) and returns its textual report.
func Run(name string, opt Options) (string, error) {
	if name == "all" {
		var b strings.Builder
		for _, e := range registry {
			s, _, err := e.run(opt)
			if err != nil {
				return b.String(), err
			}
			b.WriteString(s)
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	e, ok := lookup(name)
	if !ok {
		return "", fmt.Errorf("exp: unknown experiment %q (want table1, table2, fig8..fig16, ablation, passes or all)", name)
	}
	s, _, err := e.run(opt)
	return s, err
}

// RunCSV regenerates an experiment and renders its rows as CSV for
// external plotting (the figures in the paper are bar/line charts over
// exactly these columns). Table1 has no data rows and is rejected.
func RunCSV(name string, opt Options) (string, error) {
	e, ok := lookup(name)
	if !ok || e.header == nil {
		return "", fmt.Errorf("exp: experiment %q has no CSV form", name)
	}
	_, records, err := e.run(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(e.header); err != nil {
		return "", err
	}
	if err := w.WriteAll(records); err != nil {
		return "", err
	}
	return b.String(), nil
}

func itoa(i int) string { return strconv.Itoa(i) }

func ftoa(f float64) string { return strconv.FormatFloat(f, 'e', 6, 64) }
