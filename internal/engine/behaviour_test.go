package engine

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"ssync/internal/device"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// TestBehaviourGolden pins what the built-in compilers emit on the
// quick-scale Figs. 8–10 grid: every schedule.Counts field plus the op
// count of each (workload, topology, compiler) cell, and the schedule's
// execution time, log success rate and peak transport n̄ under
// sim.DefaultOptions() (shortest exact decimal), compared exactly
// against the checked-in golden. Refactors must leave it unchanged; after
// an intended behaviour change, refresh it with:
//
//	go test ./internal/engine/ -run TestBehaviourGolden -update
var updateBehaviour = flag.Bool("update", false, "rewrite testdata/behaviour.golden from the current compilers")

const behaviourGolden = "testdata/behaviour.golden"

func TestBehaviourGolden(t *testing.T) {
	grid := []struct {
		app   string
		topos []string
	}{
		{"Adder_4", []string{"S-4", "G-2x2"}},
		{"BV_12", []string{"S-4"}},
		{"QFT_12", []string{"S-4", "G-2x2"}},
	}
	compilers := []string{CompilerMurali, CompilerDai, CompilerSSync, CompilerSSyncAnnealed}
	var b strings.Builder
	for _, g := range grid {
		c, err := workloads.Build(g.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range g.topos {
			topo, err := device.ByName(tn, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range compilers {
				res, err := Direct(Request{Circuit: c, Topo: topo, Compiler: name})
				if err != nil {
					t.Fatalf("%s on %s with %s: %v", g.app, tn, name, err)
				}
				m := sim.Run(res.Schedule, topo, sim.DefaultOptions())
				fmt.Fprintf(&b, "%s %s %s ops=%d %+v time=%s log_success=%s max_nbar=%s\n",
					g.app, tn, name, len(res.Schedule.Ops), res.Counts,
					exact(m.ExecutionTime), exact(m.LogSuccess), exact(m.MaxNbar))
			}
		}
	}
	got := b.String()
	if *updateBehaviour {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(behaviourGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", behaviourGolden)
		return
	}
	want, err := os.ReadFile(behaviourGolden)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/engine/ -run TestBehaviourGolden -update`): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("grid has %d cells, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell %d changed:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}

// exact prints x as the shortest decimal that parses back to it.
func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
