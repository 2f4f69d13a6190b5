package exp

import (
	"math"
	"sort"
	"sync"
	"testing"

	"ssync/internal/device"
	"ssync/internal/workloads"
)

// gridQuality summarises S-SYNC against the better of the two baselines
// on each panel of a grid.
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
	// MedianDeltaLn and WorstDeltaLn are the median and the lowest
	// per-panel ln(success) of S-SYNC minus the better baseline's.
	MedianDeltaLn, WorstDeltaLn float64
}

// qualityOf folds a grid into its gridQuality. The runner returns cells
// panel by panel, one per compiler of Compilers, so each run of
// len(Compilers) cells is one panel: an application, a topology and a
// trap capacity. Success rates compare through LogSuccess, which stays
// finite where the rate itself underflows.
func qualityOf(t *testing.T, cells []Cell) gridQuality {
	t.Helper()
	if len(cells)%len(Compilers) != 0 {
		t.Fatalf("%d cells do not split into panels of %d compilers", len(cells), len(Compilers))
	}
	var q gridQuality
	var logShuttle, logSuccess float64
	var deltas []float64
	for i := 0; i < len(cells); i += len(Compilers) {
		row := map[string]Cell{}
		for _, c := range cells[i : i+len(Compilers)] {
			if c.Panel != cells[i].Panel {
				t.Fatalf("panel %+v holds a cell of panel %+v", cells[i].Panel, c.Panel)
			}
			row[c.Variant] = c
		}
		s, m, d := row[SSync], row[Murali], row[Dai]
		bestShuttles := min(m.Shuttles, d.Shuttles)
		bestLogSuccess := max(m.LogSuccess, d.LogSuccess)
		if len(row) != len(Compilers) || s.Shuttles == 0 || bestShuttles == 0 || math.IsInf(s.LogSuccess, 0) || math.IsInf(bestLogSuccess, 0) {
			t.Fatalf("%s/%s: degenerate panel (compilers %d, shuttles %d vs %d, log success %g vs %g)",
				s.App, s.Topo, len(row), s.Shuttles, bestShuttles, s.LogSuccess, bestLogSuccess)
		}
		logShuttle += math.Log(float64(bestShuttles) / float64(s.Shuttles))
		logSuccess += s.LogSuccess - bestLogSuccess
		deltas = append(deltas, s.LogSuccess-bestLogSuccess)
		if s.Shuttles < bestShuttles {
			q.ShuttleWins++
		}
		if s.LogSuccess > bestLogSuccess {
			q.SuccessWins++
		}
	}
	q.Panels = len(deltas)
	q.ShuttleRatio = math.Exp(logShuttle / float64(q.Panels))
	q.SuccessRatio = math.Exp(logSuccess / float64(q.Panels))
	sort.Float64s(deltas)
	q.MedianDeltaLn = (deltas[(q.Panels-1)/2] + deltas[q.Panels/2]) / 2
	q.WorstDeltaLn = deltas[0]
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
	checkFloor(t, "full grid", qualityOf(t, cells), fullGridFloor)
}

// heldOutFloor is S-SYNC's recorded quality on the held-out grid, a
// ratchet like fullGridFloor that also keeps the median and worst
// per-panel Δln(success) from falling.
var heldOutFloor = gridQuality{
	ShuttleRatio:  0.966981641243,
	SuccessRatio:  0.251804782158,
	ShuttleWins:   67,
	SuccessWins:   80,
	Panels:        204,
	MedianDeltaLn: -0.032453026485,
	WorstDeltaLn:  -22.284571197103,
}

// TestHeldOutQualityRatchet compiles a grid no quality change was tuned
// on: Fig. 11's sweep (7 topologies × total capacity 96–144) over six
// paper-scale applications, minus each topology's paper capacity, under
// the three evaluated compilers. A panel is an application, a topology
// and a trap capacity. It fails if S-SYNC's quality against the better
// baseline drops below heldOutFloor on any of the six measures.
func TestHeldOutQualityRatchet(t *testing.T) {
	sweep, err := fig11Sweep(Options{}, []string{"QFT_64", "BV_64", "Adder_32", "Heisenberg_48", "QAOA_64", "ALT_64"})
	if err != nil {
		t.Fatal(err)
	}
	var panels []workloads.Panel
	for _, p := range sweep {
		if p.Capacity != device.PaperCapacity(p.Topo) {
			panels = append(panels, p)
		}
	}
	cells, err := compile(panels, compilerVariants(Compilers...), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := qualityOf(t, cells)
	checkFloor(t, "held-out grid", q, heldOutFloor)
	t.Logf("held-out grid: median Δln(success) %.12f, worst %.12f", q.MedianDeltaLn, q.WorstDeltaLn)
	if below(q.MedianDeltaLn, heldOutFloor.MedianDeltaLn) {
		t.Errorf("median Δln(success) %.6f fell below its floor %.6f", q.MedianDeltaLn, heldOutFloor.MedianDeltaLn)
	}
	if below(q.WorstDeltaLn, heldOutFloor.WorstDeltaLn) {
		t.Errorf("worst Δln(success) %.6f fell below its floor %.6f", q.WorstDeltaLn, heldOutFloor.WorstDeltaLn)
	}
}

// checkFloor fails if q has a different panel count from floor or falls
// below it on a ratio or a win count.
func checkFloor(t *testing.T, grid string, q, floor gridQuality) {
	t.Helper()
	t.Logf("%s: shuttle ratio %.12f, success ratio %.12f, shuttle wins %d, success wins %d of %d panels",
		grid, q.ShuttleRatio, q.SuccessRatio, q.ShuttleWins, q.SuccessWins, q.Panels)
	if q.Panels != floor.Panels {
		t.Fatalf("grid has %d panels, want %d", q.Panels, floor.Panels)
	}
	if below(q.ShuttleRatio, floor.ShuttleRatio) {
		t.Errorf("shuttle ratio %.6f fell below its floor %.6f", q.ShuttleRatio, floor.ShuttleRatio)
	}
	if below(q.SuccessRatio, floor.SuccessRatio) {
		t.Errorf("success ratio %.6f fell below its floor %.6f", q.SuccessRatio, floor.SuccessRatio)
	}
	if q.ShuttleWins < floor.ShuttleWins {
		t.Errorf("S-SYNC wins %d panels on shuttles, floor %d", q.ShuttleWins, floor.ShuttleWins)
	}
	if q.SuccessWins < floor.SuccessWins {
		t.Errorf("S-SYNC wins %d panels on success, floor %d", q.SuccessWins, floor.SuccessWins)
	}
}

// below reports whether v fell under floor by more than 1e-9 of the
// floor's magnitude: the grids are deterministic, but the float
// summation order is not worth pinning.
func below(v, floor float64) bool { return v < floor-1e-9*math.Abs(floor) }

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
