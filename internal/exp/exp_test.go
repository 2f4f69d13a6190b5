package exp

import (
	"strings"
	"testing"

	"ssync/internal/mapping"
	"ssync/internal/noise"
)

var quick = Options{Quick: true}

func TestComparisonGrid(t *testing.T) {
	cells, err := Comparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 || len(cells)%3 != 0 {
		t.Fatalf("cell count = %d, want positive multiple of 3", len(cells))
	}
	for _, c := range cells {
		if c.Success < 0 || c.Success > 1 {
			t.Errorf("%s/%s/%s success = %g", c.App, c.Topo, c.Variant, c.Success)
		}
		if c.Shuttles < 0 || c.Swaps < 0 {
			t.Errorf("%s/%s/%s negative counts", c.App, c.Topo, c.Variant)
		}
	}
}

func TestComparisonCached(t *testing.T) {
	a, err := Comparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Comparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("comparison grid not memoised")
	}
}

func TestFig8Through10Render(t *testing.T) {
	for _, name := range []string{"fig8", "fig9", "fig10"} {
		out, err := Run(name, quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "Murali") || !strings.Contains(out, "This Work") {
			t.Errorf("%s output missing compiler columns:\n%s", name, out)
		}
	}
}

func TestSSyncReducesShuttlesOnAverage(t *testing.T) {
	// Directional check of the paper's headline claim at quick scale:
	// aggregate shuttles across the grid must be lower for S-SYNC than for
	// the Murali baseline.
	cells, err := Comparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	sum := map[string]int{}
	for _, c := range cells {
		sum[c.Variant] += c.Shuttles
	}
	if sum[SSync] >= sum[Murali] {
		t.Errorf("aggregate shuttles: ssync=%d murali=%d — expected reduction",
			sum[SSync], sum[Murali])
	}
	t.Logf("aggregate shuttles: murali=%d dai=%d ssync=%d", sum[Murali], sum[Dai], sum[SSync])
}

func TestFig11Shapes(t *testing.T) {
	out, rows, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("fig11 produced no rows")
	}
	for _, r := range rows {
		if r.ExecTime <= 0 {
			t.Errorf("%s/%s: non-positive execution time", r.App, r.Topo)
		}
	}
	if !strings.Contains(out, "Fig. 11") {
		t.Error("missing title")
	}
}

func TestFig12CoversAllMappings(t *testing.T) {
	_, rows, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Variant] = true
	}
	for _, s := range []mapping.Strategy{mapping.Gathering, mapping.EvenDivided, mapping.STA} {
		if !seen[s.String()] {
			t.Errorf("mapping %v missing from fig12 rows", s)
		}
	}
}

func TestFig13CoversAllModels(t *testing.T) {
	_, rows, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Variant] = true
		if r.Success < 0 || r.Success > 1 {
			t.Errorf("%s/%s success = %g", r.App, r.Variant, r.Success)
		}
	}
	for _, m := range []noise.GateModel{noise.FM, noise.PM, noise.AM1, noise.AM2} {
		if !seen[m.String()] {
			t.Errorf("model %v missing", m)
		}
	}
}

func TestFig14SweepsParams(t *testing.T) {
	_, rows, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	var hasRatio, hasDecay bool
	for _, r := range rows {
		if strings.HasPrefix(r.Variant, "r") {
			hasRatio = true
		}
		if strings.HasPrefix(r.Variant, "d") {
			hasDecay = true
		}
	}
	if !hasRatio || !hasDecay {
		t.Errorf("fig14 rows missing a sweep: ratio=%v decay=%v", hasRatio, hasDecay)
	}
}

func TestFig15MeasuresBothCompilers(t *testing.T) {
	_, rows, err := Fig15(quick)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Variant] = true
		if r.CompileTime < 0 {
			t.Errorf("negative compile time for %s_%d", r.App, r.Size)
		}
	}
	if !seen[SSync] || !seen[Murali] {
		t.Errorf("fig15 missing a compiler: %v", seen)
	}
}

func TestFig16OrderingInvariant(t *testing.T) {
	_, rows, err := Fig16(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Per app: ideal >= perfect-shuttle >= ssync and ideal >= perfect-swap
	// >= ssync (removing cost sources can only help).
	byApp := map[string]map[string]float64{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]float64{}
		}
		byApp[r.App][r.Variant] = r.Success
	}
	const tol = 1e-12
	for app, m := range byApp {
		if m["ideal"]+tol < m["perfect-shuttle"] || m["ideal"]+tol < m["perfect-swap"] {
			t.Errorf("%s: ideal not best: %v", app, m)
		}
		if m["perfect-shuttle"]+tol < m["ssync"] || m["perfect-swap"]+tol < m["ssync"] {
			t.Errorf("%s: S-SYNC beats an idealisation: %v", app, m)
		}
	}
}

func TestTables(t *testing.T) {
	if out := Table1(); !strings.Contains(out, "Split") || !strings.Contains(out, "80") {
		t.Errorf("Table1 malformed:\n%s", out)
	}
	out, rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("Table2 rows = %d, want 7", len(rows))
	}
	if !strings.Contains(out, "Heisenberg_48") {
		t.Errorf("Table2 missing Heisenberg:\n%s", out)
	}
}

func TestRunDispatch(t *testing.T) {
	for _, e := range registry {
		if e.name == "fig11" || e.name == "fig14" || e.name == "fig15" {
			continue // covered individually; skip repeats for speed
		}
		if _, err := Run(e.name, quick); err != nil {
			t.Errorf("Run(%s): %v", e.name, err)
		}
	}
	if _, err := Run("fig99", quick); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAblationCoversAllVariants(t *testing.T) {
	_, rows, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]bool{}
	for _, r := range rows {
		variants[r.Variant] = true
		if r.Success < 0 || r.Success > 1 {
			t.Errorf("%s/%s success = %g", r.App, r.Variant, r.Success)
		}
	}
	for _, want := range []string{"full", "no-lookahead", "no-decay", "no-pen", "no-path-trunc", "heat-aware", "commutation"} {
		if !variants[want] {
			t.Errorf("variant %q missing", want)
		}
	}
}

func TestRunCSV(t *testing.T) {
	for _, name := range []string{"table2", "fig8", "fig13", "fig16", "ablation"} {
		out, err := RunCSV(name, quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: no data rows", name)
			continue
		}
		cols := strings.Count(lines[0], ",")
		for i, l := range lines {
			if strings.Count(l, ",") != cols {
				t.Errorf("%s line %d: ragged CSV: %q", name, i, l)
			}
		}
	}
	if _, err := RunCSV("table1", quick); err == nil {
		t.Error("table1 CSV should be rejected")
	}
	if _, err := RunCSV("nope", quick); err == nil {
		t.Error("unknown CSV experiment accepted")
	}
}
