// Adder pipeline: the paper's flagship result (Sec. 5.1) in miniature —
// compile the Cuccaro ripple-carry adder with every built-in compiler
// on the same device through the unified CompileRequest API and compare
// shuttles, SWAPs and success rate. On Adder_32 the paper reports up to
// a 90.2% shuttle reduction and a 2.3x success improvement for S-SYNC;
// this example reproduces the comparison on any adder width, with the
// simulated-annealing mapper riding along as a fourth entrant.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"ssync"
)

func main() {
	bits := flag.Int("bits", 32, "adder operand width in bits (qubits = 2*bits + 2)")
	topoName := flag.String("topo", "L-4", "device topology")
	flag.Parse()

	c := ssync.Adder(*bits)
	topo, err := ssync.TopologyByName(*topoName, ssync.PaperCapacity(*topoName))
	if err != nil {
		log.Fatal(err)
	}
	if topo.TotalCapacity() < c.NumQubits {
		log.Fatalf("device %s holds %d ions; %s needs %d",
			topo.Name, topo.TotalCapacity(), c.Name, c.NumQubits)
	}
	fmt.Printf("%s (%d qubits, %d 2Q gates) on %s\n\n",
		c.Name, c.NumQubits, c.TwoQubitCount(), topo.Name)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 3, ' ', 0)
	fmt.Fprintln(w, "compiler\tshuttles\tswaps\texec (µs)\tsuccess\tcompile")
	entries := []struct {
		name     string
		compiler string
	}{
		{"Murali et al.", ssync.MuraliCompilerName},
		{"Dai et al.", ssync.DaiCompilerName},
		{"S-SYNC", ssync.SSyncCompilerName},
		{"S-SYNC (annealed)", ssync.SSyncAnnealedCompilerName},
	}
	ctx := context.Background()
	var base, ours float64
	for _, e := range entries {
		resp := ssync.Do(ctx, ssync.CompileRequest{
			Label: e.name, Circuit: c, Topo: topo, Compiler: e.compiler,
		})
		if resp.Err != nil {
			log.Fatalf("%s: %v", e.name, resp.Err)
		}
		res := resp.Result
		m := ssync.Simulate(res.Schedule, topo, ssync.DefaultSimOptions())
		fmt.Fprintf(w, "%s\t%d\t%d\t%.3e\t%.3e\t%s\n",
			e.name, res.Counts.Shuttles, res.Counts.Swaps,
			m.ExecutionTime, m.SuccessRate, res.CompileTime.Round(1e6))
		switch e.name {
		case "Murali et al.":
			base = m.SuccessRate
		case "S-SYNC":
			ours = m.SuccessRate
		}
	}
	w.Flush()
	if base > 0 {
		fmt.Printf("\nS-SYNC success-rate improvement over Murali et al.: %.2fx\n", ours/base)
	}
}
