package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/sched"
	"ssync/internal/workloads"
)

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

// passBreakdownGrid is the workload the breakdown compiles: one
// representative benchmark per scale.
func passBreakdownGrid(opt Options) (app, topo string, capacity int) {
	if opt.Quick {
		return "QFT_12", "G-2x2", 8
	}
	return "QFT_24", "G-2x3", 0
}

// PassBreakdown compiles one benchmark through every canned pipeline and
// reports the per-pass wall time and gate-count deltas the staged API
// exposes — the engine-axis observability the monolithic compilers could
// not provide.
func PassBreakdown(opt Options) (string, []PassRow, error) {
	app, topoName, capacity := passBreakdownGrid(opt)
	c, err := workloads.Build(app)
	if err != nil {
		return "", nil, err
	}
	if capacity == 0 {
		capacity = device.PaperCapacity(topoName)
	}
	topo, err := device.ByName(topoName, capacity)
	if err != nil {
		return "", nil, err
	}
	eng := engine.New(engine.Options{CacheSize: -1})
	var rows []PassRow
	for _, comp := range []string{"murali", "dai", "ssync", "ssync-annealed"} {
		res := eng.Do(context.Background(), engine.Request{
			Label: app, Circuit: c, Topo: topo, Compiler: comp,
			Priority: sched.Background, // offline sweep: never contend with live traffic
		})
		if res.Err != nil {
			return "", nil, fmt.Errorf("exp: %s on %s with %s: %w", app, topoName, comp, res.Err)
		}
		for i, pt := range res.Result.PassTimings {
			rows = append(rows, PassRow{
				App: app, Topo: topoName, Compiler: comp,
				Stage: i, Pass: pt.Pass, Duration: pt.Duration, GateDelta: pt.GateDelta,
			})
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Pass breakdown — %s on %s (per-stage compile time and gate deltas)\n", app, topoName)
	fmt.Fprintf(&b, "%-15s %2s %-16s %12s %11s\n", "compiler", "#", "pass", "time (ms)", "gate delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %2d %-16s %12.3f %+11d\n",
			r.Compiler, r.Stage, r.Pass,
			float64(r.Duration)/float64(time.Millisecond), r.GateDelta)
	}
	return b.String(), rows, nil
}
