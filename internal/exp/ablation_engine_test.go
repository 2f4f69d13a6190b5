package exp

import (
	"testing"

	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// TestAblationEngineMatchesDirectCompile pins the ablation on the
// runner: compiling each variant's canned S-SYNC pipeline through the
// cacheless pool produces exactly the rows a serial core.Compile loop
// produces.
func TestAblationEngineMatchesDirectCompile(t *testing.T) {
	_, cells, err := Ablation(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		app, topo, variant         string
		shuttles, swaps, fallbacks int
		success                    float64
	}
	var got, want []row
	for _, c := range cells {
		got = append(got, row{c.App, c.Topo, c.Variant, c.Shuttles, c.Swaps, c.Fallbacks, c.Success})
	}
	for _, w := range []struct {
		app, topo string
		cap       int
	}{
		{"QFT_12", "G-2x2", 5},
		{"BV_12", "L-4", 5},
	} {
		c, err := workloads.Build(w.app)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := device.ByName(w.topo, w.cap)
		if err != nil {
			t.Fatal(err)
		}
		if topo.TotalCapacity() < c.NumQubits {
			continue
		}
		for _, v := range ablationVariants() {
			res, err := core.Compile(*v.Config, c, topo)
			if err != nil {
				t.Fatal(err)
			}
			m := sim.Run(res.Schedule, topo, sim.DefaultOptions())
			want = append(want, row{w.app, w.topo, v.Name, res.Counts.Shuttles, res.Counts.Swaps, res.Fallbacks, m.SuccessRate})
		}
	}

	if len(got) != len(want) {
		t.Fatalf("engine ablation produced %d rows, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: engine %+v != reference %+v", i, got[i], want[i])
		}
	}
}
