package exp

import (
	"fmt"
	"strings"
	"time"

	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/mapping"
	"ssync/internal/noise"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// comparisonFigure renders the Figs. 8/9/10 grid as aligned text: one
// row per panel with the three compilers' values of the chosen metric.
func comparisonFigure(title, metric string) func(Options) (string, []Cell, error) {
	return func(opt Options) (string, []Cell, error) {
		cells, err := Comparison(opt)
		if err != nil {
			return "", nil, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n%-14s %-7s %12s %12s %12s\n", title, "application", "topo", "Murali", "Dai", "This Work")
		for i := 0; i < len(cells); i += len(Compilers) {
			fmt.Fprintf(&b, "%-14s %-7s", cells[i].App, cells[i].Topo)
			for _, c := range cells[i : i+len(Compilers)] {
				switch metric {
				case "shuttles":
					fmt.Fprintf(&b, " %12d", c.Shuttles)
				case "swaps":
					fmt.Fprintf(&b, " %12d", c.Swaps)
				case "success":
					fmt.Fprintf(&b, " %12.3e", c.Success)
				}
			}
			b.WriteByte('\n')
		}
		return b.String(), cells, nil
	}
}

// fig11Sweep lists Fig. 11's panels: each application on each topology of
// the study at each total capacity, rounded up to whole slots per trap.
func fig11Sweep(opt Options, apps []string) ([]workloads.Panel, error) {
	topos := []string{"L-6", "G-2x3", "S-6", "L-4", "G-2x2", "S-4", "G-3x3"}
	totals := []int{96, 108, 120, 132, 144}
	if opt.Quick {
		topos = []string{"L-4", "G-2x2", "S-4"}
		totals = []int{20, 28}
	}
	var panels []workloads.Panel
	for _, app := range apps {
		for _, tn := range topos {
			topo, err := device.ByName(tn, 1)
			if err != nil {
				return nil, err
			}
			traps := topo.NumTraps()
			for _, total := range totals {
				panels = append(panels, workloads.Panel{App: app, Topo: tn, Capacity: (total + traps - 1) / traps})
			}
		}
	}
	return panels, nil
}

// Fig11 sweeps 7 topologies × total trap capacity for QFT, BV, Adder and
// the Heisenberg simulation, reporting success rate and execution time
// under S-SYNC.
func Fig11(opt Options) (string, []Cell, error) {
	apps := []string{"QFT_64", "BV_64", "Adder_32", "Heisenberg_48"}
	if opt.Quick {
		apps = []string{"QFT_12", "BV_12", "Adder_4", "Heisenberg_8"}
	}
	panels, err := fig11Sweep(opt, apps)
	if err != nil {
		return "", nil, err
	}
	cells, err := compile(panels, compilerVariants(SSync), 0)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("Fig. 11 — Topology and trap capacity study (S-SYNC)\n")
	fmt.Fprintf(&b, "%-14s %-7s %9s %13s %15s\n", "application", "topo", "capacity", "success", "exec time (µs)")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-14s %-7s %9d %13.3e %15.3e\n", c.App, c.Topo, c.topo.TotalCapacity(), c.Success, c.ExecTime)
	}
	return b.String(), cells, nil
}

// onDevice lists each application on one device: each family at each
// size for the application-size studies (Figs. 12, 14 and 15), or with
// no sizes each Table 2 name once.
func onDevice(topo string, capacity int, apps []string, sizes ...int) []workloads.Panel {
	if len(sizes) == 0 {
		sizes = []int{0}
	}
	var panels []workloads.Panel
	for _, app := range apps {
		for _, size := range sizes {
			panels = append(panels, workloads.Panel{App: app, Size: size, Topo: topo, Capacity: capacity})
		}
	}
	return panels
}

// ssyncVariant is S-SYNC under the default configuration as changed by
// mut.
func ssyncVariant(name string, mut func(*core.Config)) engine.Variant {
	cfg := core.DefaultConfig()
	mut(&cfg)
	return engine.Variant{Name: name, Compiler: SSync, Config: &cfg}
}

// Fig12 compares gathering, even-divided and STA initial mappings on a
// G-2x3 device while sweeping application size (Adder and QFT families).
func Fig12(opt Options) (string, []Cell, error) {
	sizes := []int{50, 60, 70, 80, 90}
	capacity := 17
	if opt.Quick {
		sizes = []int{12, 16}
		capacity = 5
	}
	var variants []engine.Variant
	for _, s := range []mapping.Strategy{mapping.Gathering, mapping.EvenDivided, mapping.STA} {
		variants = append(variants, ssyncVariant(s.String(), func(c *core.Config) { c.Mapping.Strategy = s }))
	}
	cells, err := compile(onDevice("G-2x3", capacity, []string{"adder", "qft"}, sizes...), variants, 0)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("Fig. 12 — Initial mapping study on G-2x3 (S-SYNC)\n")
	fmt.Fprintf(&b, "%-7s %5s %-13s %9s %6s %13s %13s\n",
		"app", "size", "mapping", "shuttles", "swaps", "exec (µs)", "success")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-7s %5d %-13s %9d %6d %13.3e %13.3e\n",
			c.App, c.Size, c.Variant, c.Shuttles, c.Swaps, c.ExecTime, c.Success)
	}
	return b.String(), cells, nil
}

// successTable renders re-simulated cells as one row per application and
// one success-rate column per option set.
func successTable(title string, width int, columns []string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s", title, "application")
	for _, col := range columns {
		fmt.Fprintf(&b, " %*s", width, col)
	}
	b.WriteByte('\n')
	for i := 0; i < len(cells); i += len(columns) {
		fmt.Fprintf(&b, "%-14s", cells[i].App)
		for _, c := range cells[i : i+len(columns)] {
			fmt.Fprintf(&b, " %*.3e", width, c.Success)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig13 compares FM, AM1, AM2 and PM gate implementations on a G-2x3
// device with trap capacity 16 across the five large benchmarks. The
// schedule is compiled once per app (scheduling is model-independent);
// each model re-simulates it.
func Fig13(opt Options) (string, []Cell, error) {
	apps := []string{"Adder_32", "QFT_64", "BV_64", "QAOA_64", "ALT_64"}
	capacity := 16
	if opt.Quick {
		apps = []string{"Adder_4", "QFT_12", "BV_12"}
		capacity = 6
	}
	compiled, err := compile(onDevice("G-2x3", capacity, apps), compilerVariants(SSync), 0)
	if err != nil {
		return "", nil, err
	}
	var names []string
	var opts []sim.Options
	for _, model := range []noise.GateModel{noise.FM, noise.AM1, noise.AM2, noise.PM} {
		o := sim.DefaultOptions()
		o.Params.Model = model
		names, opts = append(names, model.String()), append(opts, o)
	}
	cells := resimulate(compiled, names, opts)
	return successTable("Fig. 13 — Success rate by gate implementation (G-2x3, capacity 16)", 12, names, cells), cells, nil
}

// Fig14 sweeps the shuttle/inner weight ratio r and the decay rate δ on a
// G-2x2 device with capacity 20 (Sec. 5.5).
func Fig14(opt Options) (string, []Cell, error) {
	families := []string{"adder", "qft", "qaoa"}
	sizes := []int{50, 60, 70}
	capacity := 20
	if opt.Quick {
		families = []string{"qft"}
		sizes = []int{12}
		capacity = 5
	}
	var variants []engine.Variant
	for _, r := range []float64{100, 1000, 10000, 100000} {
		variants = append(variants, ssyncVariant(fmt.Sprintf("r%g", r), func(c *core.Config) { c.InnerWeight = c.ShuttleWeight / r }))
	}
	for _, d := range []float64{0, 0.01, 0.001, 0.0001} {
		variants = append(variants, ssyncVariant(fmt.Sprintf("d%g", d), func(c *core.Config) { c.Delta = d }))
	}
	cells, err := compile(onDevice("G-2x2", capacity, families, sizes...), variants, 0)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("Fig. 14 — Hyperparameter sensitivity (G-2x2, capacity 20)\n")
	fmt.Fprintf(&b, "%-7s %5s %-10s %13s\n", "app", "size", "param", "success")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-7s %5d %-10s %13.3e\n", c.App, c.Size, c.Variant, c.Success)
	}
	return b.String(), cells, nil
}

// Fig15 measures compilation time against application size on a G-2x2
// device with capacity 20: S-SYNC vs the Murali baseline on QFT, plus
// S-SYNC across the other benchmark families. It compiles on one worker,
// so each time is serial, and both compilers time their whole pipeline
// (decomposition, placement and routing).
func Fig15(opt Options) (string, []Cell, error) {
	sizes := []int{50, 55, 60, 65, 70}
	capacity := 20
	families := []string{"adder", "bv", "qaoa", "alt"}
	if opt.Quick {
		sizes = []int{10, 14}
		capacity = 5
		families = []string{"bv"}
	}
	qft, err := compile(onDevice("G-2x2", capacity, []string{"qft"}, sizes...), compilerVariants(Murali, SSync), 1)
	if err != nil {
		return "", nil, err
	}
	rest, err := compile(onDevice("G-2x2", capacity, families, sizes...), compilerVariants(SSync), 1)
	if err != nil {
		return "", nil, err
	}
	cells := append(qft, rest...)
	var b strings.Builder
	b.WriteString("Fig. 15 — Compilation time vs application size (G-2x2, capacity 20)\n")
	fmt.Fprintf(&b, "%-7s %5s %-8s %12s\n", "app", "size", "compiler", "compile (s)")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-7s %5d %-8s %12.4f\n", c.App, c.Size, c.Variant, c.CompileTime.Seconds())
	}
	return b.String(), cells, nil
}

// Fig16Scenarios lists the idealisation ladder of the optimality study.
var Fig16Scenarios = []string{"ideal", "perfect-shuttle", "perfect-swap", "ssync"}

// Fig16 evaluates the optimality gap of S-SYNC on a G-2x2 device with
// capacity 20: the same compiled schedule simulated under ideal (free
// transport and SWAPs), perfect-shuttle (free transport), perfect-SWAP
// (free SWAP gates) and realistic assumptions.
func Fig16(opt Options) (string, []Cell, error) {
	apps := []string{"BV_64", "Adder_32", "QAOA_64", "ALT_64", "QFT_64"}
	capacity := 20
	if opt.Quick {
		apps = []string{"BV_12", "Adder_4", "QFT_12"}
		capacity = 6
	}
	compiled, err := compile(onDevice("G-2x2", capacity, apps), compilerVariants(SSync), 0)
	if err != nil {
		return "", nil, err
	}
	opts := make([]sim.Options, len(Fig16Scenarios))
	for i, scen := range Fig16Scenarios {
		opts[i] = sim.DefaultOptions()
		opts[i].PerfectShuttle = scen == "ideal" || scen == "perfect-shuttle"
		opts[i].PerfectSwap = scen == "ideal" || scen == "perfect-swap"
	}
	cells := resimulate(compiled, Fig16Scenarios, opts)
	columns := []string{"ideal", "perfect shuttle", "perfect SWAP", "S-SYNC"}
	return successTable("Fig. 16 — Optimality analysis (G-2x2, capacity 20)", 16, columns, cells), cells, nil
}

// ablationVariants enumerates the design choices DESIGN.md calls out, each
// disabled in isolation against the full configuration.
func ablationVariants() []engine.Variant {
	return []engine.Variant{
		ssyncVariant("full", func(*core.Config) {}),
		ssyncVariant("no-lookahead", func(c *core.Config) { c.LookaheadGates = 0 }),
		ssyncVariant("no-decay", func(c *core.Config) { c.Delta = 0 }),
		ssyncVariant("no-pen", func(c *core.Config) { c.PenWeight = 0 }),
		ssyncVariant("no-path-trunc", func(c *core.Config) { c.PathLimit = 0 }),
		ssyncVariant("heat-aware", func(c *core.Config) { c.HeatAware = true }),
		ssyncVariant("commutation", func(c *core.Config) { c.CommutationAware = true }),
	}
}

// ablationPanels are the representative communication patterns the
// ablation compiles.
func ablationPanels(opt Options) []workloads.Panel {
	if opt.Quick {
		return []workloads.Panel{{App: "QFT_12", Topo: "G-2x2", Capacity: 5}, {App: "BV_12", Topo: "L-4", Capacity: 5}}
	}
	return []workloads.Panel{
		{App: "QFT_24", Topo: "G-2x3", Capacity: 17},
		{App: "Adder_32", Topo: "L-4", Capacity: 22},
		{App: "BV_64", Topo: "G-2x3", Capacity: 17},
		{App: "QAOA_64", Topo: "S-4", Capacity: 22},
	}
}

// Ablation quantifies each S-SYNC design choice by disabling it in
// isolation (plus the heat-aware extension, enabled in isolation) across
// representative communication patterns.
func Ablation(opt Options) (string, []Cell, error) {
	cells, err := compile(ablationPanels(opt), ablationVariants(), 0)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("Ablation — S-SYNC design choices disabled in isolation\n")
	fmt.Fprintf(&b, "%-10s %-7s %-14s %9s %6s %13s %4s\n",
		"app", "topo", "variant", "shuttles", "swaps", "success", "fb")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %-7s %-14s %9d %6d %13.3e %4d\n",
			c.App, c.Topo, c.Variant, c.Shuttles, c.Swaps, c.Success, c.Fallbacks)
	}
	return b.String(), cells, nil
}

// PassRow is one (compiler, pass) stage measurement of the pipeline
// breakdown: where each canned compiler spends its compile time and how
// each stage changes the working gate count.
type PassRow struct {
	App      string
	Topo     string
	Compiler string
	Stage    int
	Pass     string
	Duration time.Duration
	// GateDelta is the stage's change in working gate count (basis
	// expansion for decomposition, schedule overhead for routing).
	GateDelta int
}

// PassBreakdown compiles one representative benchmark through every
// canned pipeline, on one worker, and reports the per-pass wall time and
// gate-count deltas of each stage.
func PassBreakdown(opt Options) (string, []PassRow, error) {
	panel := workloads.Panel{App: "QFT_24", Topo: "G-2x3", Capacity: device.PaperCapacity("G-2x3")}
	if opt.Quick {
		panel = workloads.Panel{App: "QFT_12", Topo: "G-2x2", Capacity: 8}
	}
	cells, err := compile([]workloads.Panel{panel}, compilerVariants(Murali, Dai, SSync, engine.CompilerSSyncAnnealed), 1)
	if err != nil {
		return "", nil, err
	}
	var rows []PassRow
	for _, c := range cells {
		for i, pt := range c.res.PassTimings {
			rows = append(rows, PassRow{
				App: c.App, Topo: c.Topo, Compiler: c.Variant,
				Stage: i, Pass: pt.Pass, Duration: pt.Duration, GateDelta: pt.GateDelta,
			})
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Pass breakdown — %s on %s (per-stage compile time and gate deltas)\n", panel.App, panel.Topo)
	fmt.Fprintf(&b, "%-15s %2s %-16s %12s %11s\n", "compiler", "#", "pass", "time (ms)", "gate delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %2d %-16s %12.3f %+11d\n",
			r.Compiler, r.Stage, r.Pass,
			float64(r.Duration)/float64(time.Millisecond), r.GateDelta)
	}
	return b.String(), rows, nil
}
