package engine

import (
	"context"
	"testing"

	"ssync/internal/device"
	"ssync/internal/workloads"
)

func TestRaceWinnerBeatsOrTiesEveryMember(t *testing.T) {
	c := workloads.QFT(12)
	topo, err := device.ByName("G-2x2", 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{})
	out, err := eng.Race(context.Background(), c, topo, nil, RaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.WinnerIndex < 0 || out.WinnerIndex >= len(out.Results) {
		t.Fatalf("winner index %d out of range", out.WinnerIndex)
	}
	if out.Winner.Err != nil {
		t.Fatalf("winner carries an error: %v", out.Winner.Err)
	}
	win := out.Metrics[out.WinnerIndex]
	for i, r := range out.Results {
		if r.Err != nil {
			continue // failed entrants are out of the running
		}
		m := out.Metrics[i]
		if m.SuccessRate > win.SuccessRate {
			t.Errorf("entrant %d (%s) success %.3e beats winner's %.3e",
				i, r.Label, m.SuccessRate, win.SuccessRate)
		}
		if m.SuccessRate == win.SuccessRate &&
			r.Result.Counts.Shuttles < out.Winner.Result.Counts.Shuttles {
			t.Errorf("entrant %d (%s) ties success but uses fewer shuttles", i, r.Label)
		}
	}
}

func TestRaceDefaultPortfolioCovers(t *testing.T) {
	vs := DefaultPortfolio()
	if len(vs) < 3 {
		t.Fatalf("default portfolio has %d variants, want >= 3", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if v.Name == "" {
			t.Error("unnamed portfolio variant")
		}
		if seen[v.Name] {
			t.Errorf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestRaceCustomVariantsAndCacheReuse(t *testing.T) {
	c := workloads.BV(12)
	topo, err := device.ByName("S-4", 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{})
	variants := []Variant{
		{Name: "murali", Compiler: CompilerMurali},
		{Name: "dai", Compiler: CompilerDai},
		{Name: "ssync", Compiler: CompilerSSync},
	}
	if _, err := eng.Race(context.Background(), c, topo, variants, RaceOptions{}); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	// Racing the same circuit again must be pure cache traffic.
	if _, err := eng.Race(context.Background(), c, topo, variants, RaceOptions{}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Compiled != before.Compiled {
		t.Errorf("repeat race recompiled %d variants", st.Compiled-before.Compiled)
	}
	if hits := st.Cache.Hits - before.Cache.Hits; hits != uint64(len(variants)) {
		t.Errorf("repeat race took %d cache hits, want %d", hits, len(variants))
	}
}

func TestRaceAllVariantsFail(t *testing.T) {
	c := workloads.QFT(12)
	topo, err := device.ByName("S-4", 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{})
	bad := []Variant{{Name: "bogus", Compiler: "qiskit"}}
	if _, err := eng.Race(context.Background(), c, topo, bad, RaceOptions{}); err == nil {
		t.Fatal("race with only failing variants reported success")
	}
}
