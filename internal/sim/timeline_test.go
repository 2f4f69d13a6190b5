package sim_test

import (
	"testing"

	"ssync/internal/circuit"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/schedule"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// The timeline and the simulator walk one clock: on real compiled
// schedules, under every built-in compiler and with transport or SWAPs
// idealised away, the timeline's makespan is the simulator's execution
// time exactly, and the ops the options drop leave no interval.
func TestTimelineMatchesSimulator(t *testing.T) {
	type panel struct {
		c    *circuit.Circuit
		topo *device.Topology
	}
	var panels []panel
	// The behaviour golden's quick grid at capacity 8.
	for _, g := range []struct {
		app   string
		topos []string
	}{
		{"Adder_4", []string{"S-4", "G-2x2"}},
		{"BV_12", []string{"S-4"}},
		{"QFT_12", []string{"S-4", "G-2x2"}},
	} {
		c, err := workloads.Build(g.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range g.topos {
			topo, err := device.ByName(tn, 8)
			if err != nil {
				t.Fatal(err)
			}
			panels = append(panels, panel{c, topo})
		}
	}
	for _, c := range []*circuit.Circuit{workloads.QFT(12), workloads.BV(10), workloads.QAOA(12, 3)} {
		panels = append(panels, panel{c, device.Grid(2, 2, 6)})
	}

	shuttle, swap := sim.DefaultOptions(), sim.DefaultOptions()
	shuttle.PerfectShuttle = true
	swap.PerfectSwap = true
	options := map[string]sim.Options{"default": sim.DefaultOptions(), "perfect shuttle": shuttle, "perfect swap": swap}
	compilers := []string{engine.CompilerMurali, engine.CompilerDai, engine.CompilerSSync, engine.CompilerSSyncAnnealed}

	for _, pn := range panels {
		for _, name := range compilers {
			res, err := engine.Direct(engine.Request{Circuit: pn.c, Topo: pn.topo, Compiler: name})
			if err != nil {
				t.Fatalf("%s on %s with %s: %v", pn.c.Name, pn.topo.Name, name, err)
			}
			for on, opt := range options {
				cell := pn.c.Name + " " + pn.topo.Name + " " + name + " " + on
				m := sim.Run(res.Schedule, pn.topo, opt)
				tl := sim.Timeline(res.Schedule, opt)
				if err := tl.Validate(); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if tl.Makespan != m.ExecutionTime {
					t.Errorf("%s: timeline makespan %g != simulator %g", cell, tl.Makespan, m.ExecutionTime)
				}
				if st := tl.Stats(); st.MaxParallel < 1 {
					t.Errorf("%s: no parallelism measured", cell)
				}
				// Shift through Merge are the transport kinds.
				for _, lane := range tl.Lanes {
					for _, iv := range lane {
						switch k := iv.Op.Kind; {
						case opt.PerfectSwap && k == schedule.SwapGate,
							opt.PerfectShuttle && k >= schedule.Shift && k <= schedule.Merge:
							t.Fatalf("%s: dropped %s op on the timeline", cell, k)
						}
					}
				}
			}
		}
	}
}
