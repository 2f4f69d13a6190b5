// Hardware export: the back half of the paper's Fig. 1 pipeline — compile
// with an annealed initial mapping, inspect the timed schedule (Gantt +
// parallelism stats), lower to a hardware-compatible circuit over physical
// ions, and emit it as OpenQASM for downstream tooling.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"ssync"
)

func main() {
	c := ssync.QAOA(12, 2)
	topo := ssync.RacetrackDevice(3, 6)

	// Simulated-annealing first-level mapping (extension beyond the
	// paper's three strategies), then the standard S-SYNC scheduler: the
	// "ssync-annealed" compiler, under its deterministic default seed.
	resp := ssync.Do(context.Background(), ssync.CompileRequest{
		Circuit: c, Topo: topo, Compiler: ssync.SSyncAnnealedCompilerName,
	})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	res := resp.Result
	fmt.Printf("%s on %s: %d shuttles, %d SWAPs\n\n",
		c.Name, topo.Name, res.Counts.Shuttles, res.Counts.Swaps)

	// Timed view of the schedule.
	tl := ssync.BuildTimeline(res.Schedule, ssync.DefaultNoiseParams())
	st := tl.Stats()
	fmt.Printf("makespan %.0f µs, avg parallelism %.2f qubits, max %d, transport share %.1f%%\n\n",
		st.Makespan, st.AvgParallel, st.MaxParallel, 100*st.TransportTime/st.BusyTime)
	fmt.Println(tl.Gantt(72))

	// Lower to the hardware-compatible circuit and export QASM.
	hw, ionOf, err := ssync.HardwareCircuit(res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	qasmText := ssync.WriteQASM(hw)
	fmt.Printf("hardware circuit: %d gates (%d from SWAP insertion); QASM is %d lines\n",
		len(hw.Gates), len(hw.Gates)-len(c.DecomposeToBasis().Gates),
		strings.Count(qasmText, "\n"))
	fmt.Printf("final logical→ion map: %v\n\n", ionOf)

	// Per-trap gate programs for zone-level controllers.
	prog, err := ssync.TrapProgram(res.Schedule, topo.NumTraps())
	if err != nil {
		log.Fatal(err)
	}
	for tr, ops := range prog {
		fmt.Printf("trap %d executes %d gates\n", tr, len(ops))
	}
}
