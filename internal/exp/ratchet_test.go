package exp

import (
	"math"
	"sync"
	"testing"
)

// gridQuality summarises S-SYNC against the better of the two baselines
// on each panel of a Figs. 8–10 grid.
type gridQuality struct {
	// ShuttleRatio is the geomean over panels of the better baseline's
	// shuttles over S-SYNC's (above 1: S-SYNC shuttles less).
	ShuttleRatio float64
	// SuccessRatio is the geomean over panels of S-SYNC's success rate
	// over the better baseline's (above 1: S-SYNC succeeds more often).
	SuccessRatio float64
	// ShuttleWins and SuccessWins count the panels S-SYNC strictly wins
	// on each metric.
	ShuttleWins, SuccessWins int
	Panels                   int
}

// qualityOf folds a comparison grid into its gridQuality. Success rates
// compare through LogSuccess, which stays finite where the rate itself
// underflows.
func qualityOf(t *testing.T, cells []Cell) gridQuality {
	t.Helper()
	type panel struct{ app, topo string }
	byPanel := map[panel]map[CompilerName]Cell{}
	var order []panel
	for _, c := range cells {
		p := panel{c.App, c.Topo}
		if byPanel[p] == nil {
			byPanel[p] = map[CompilerName]Cell{}
			order = append(order, p)
		}
		byPanel[p][c.Compiler] = c
	}
	var q gridQuality
	var logShuttle, logSuccess float64
	for _, p := range order {
		row := byPanel[p]
		s, m, d := row[SSync], row[Murali], row[Dai]
		bestShuttles := min(m.Shuttles, d.Shuttles)
		bestLogSuccess := max(m.LogSuccess, d.LogSuccess)
		if s.Shuttles == 0 || bestShuttles == 0 || math.IsInf(s.LogSuccess, 0) || math.IsInf(bestLogSuccess, 0) {
			t.Fatalf("%s/%s: degenerate panel (shuttles %d vs %d, log success %g vs %g)",
				p.app, p.topo, s.Shuttles, bestShuttles, s.LogSuccess, bestLogSuccess)
		}
		logShuttle += math.Log(float64(bestShuttles) / float64(s.Shuttles))
		logSuccess += s.LogSuccess - bestLogSuccess
		if s.Shuttles < bestShuttles {
			q.ShuttleWins++
		}
		if s.LogSuccess > bestLogSuccess {
			q.SuccessWins++
		}
	}
	q.Panels = len(order)
	q.ShuttleRatio = math.Exp(logShuttle / float64(q.Panels))
	q.SuccessRatio = math.Exp(logSuccess / float64(q.Panels))
	return q
}

// fullGridFloor is S-SYNC's recorded full-scale Figs. 8–10 quality. It
// is a ratchet: a change that raises a value raises its floor with it; no
// change may lower one. The paper reports 3.69x fewer shuttles and a
// 1.73x higher success rate than the better baseline.
var fullGridFloor = gridQuality{
	ShuttleRatio: 1.044897049140,
	SuccessRatio: 0.751798893656,
	ShuttleWins:  12,
	SuccessWins:  10,
	Panels:       27,
}

// TestFullGridQualityRatchet compiles the full 27-panel Figs. 8–10 grid
// (the paper's scale, not the quick grid the behaviour golden pins) and
// fails if S-SYNC's quality against the better baseline drops below
// fullGridFloor on any of the four measures.
func TestFullGridQualityRatchet(t *testing.T) {
	cells, err := Comparison(Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := qualityOf(t, cells)
	t.Logf("full grid: shuttle ratio %.12f, success ratio %.12f, shuttle wins %d, success wins %d of %d panels",
		q.ShuttleRatio, q.SuccessRatio, q.ShuttleWins, q.SuccessWins, q.Panels)
	if q.Panels != fullGridFloor.Panels {
		t.Fatalf("grid has %d panels, want %d", q.Panels, fullGridFloor.Panels)
	}
	// The ratios compare at 1e-9 relative slack: the grid is
	// deterministic, but the geomean's float summation order is not
	// worth pinning.
	const slack = 1 - 1e-9
	if q.ShuttleRatio < fullGridFloor.ShuttleRatio*slack {
		t.Errorf("shuttle ratio %.6f fell below its floor %.6f", q.ShuttleRatio, fullGridFloor.ShuttleRatio)
	}
	if q.SuccessRatio < fullGridFloor.SuccessRatio*slack {
		t.Errorf("success ratio %.6f fell below its floor %.6f", q.SuccessRatio, fullGridFloor.SuccessRatio)
	}
	if q.ShuttleWins < fullGridFloor.ShuttleWins {
		t.Errorf("S-SYNC wins %d panels on shuttles, floor %d", q.ShuttleWins, fullGridFloor.ShuttleWins)
	}
	if q.SuccessWins < fullGridFloor.SuccessWins {
		t.Errorf("S-SYNC wins %d panels on success, floor %d", q.SuccessWins, fullGridFloor.SuccessWins)
	}
}

// TestComparisonConcurrentCallers races four Comparison calls on an
// empty memo: under -race an unguarded memo is a reported data race, and
// all four callers must share one memoised grid.
func TestComparisonConcurrentCallers(t *testing.T) {
	ResetCaches()
	grids := make([][]Cell, 4)
	errs := make([]error, len(grids))
	var wg sync.WaitGroup
	for i := range grids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			grids[i], errs[i] = Comparison(quick)
		}(i)
	}
	wg.Wait()
	for i, g := range grids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &g[0] != &grids[0][0] {
			t.Errorf("caller %d got its own grid; want one memoised grid", i)
		}
	}
}
