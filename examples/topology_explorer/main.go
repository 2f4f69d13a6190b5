// Topology explorer: a Fig.-11-style study on a workload of your choice —
// sweep per-trap capacity across QCCD topologies (including a custom
// user-assembled device) and report where success peaks. The paper finds
// grid topologies dominate, with peak success around 10-15 ions per trap.
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
	benchName := flag.String("bench", "QFT_24", "Table 2 benchmark to run")
	flag.Parse()

	c, err := ssync.Benchmark(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d qubits, %d 2Q gates\n\n", c.Name, c.NumQubits, c.TwoQubitCount())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 3, ' ', 0)
	fmt.Fprintln(w, "device\tcap/trap\tshuttles\tswaps\texec (µs)\tsuccess")
	for _, name := range []string{"L-4", "L-6", "G-2x2", "G-2x3", "G-3x3", "S-4"} {
		for _, cap := range []int{8, 12, 17, 22} {
			topo, err := ssync.TopologyByName(name, cap)
			if err != nil {
				log.Fatal(err)
			}
			report(w, c, topo, cap)
		}
	}

	// A custom device through the public construction API: three big traps
	// on a ring with one junction per segment.
	traps := []ssync.Trap{{ID: 0, Capacity: 12}, {ID: 1, Capacity: 12}, {ID: 2, Capacity: 12}}
	segs := []ssync.Segment{
		{A: 0, B: 1, EndA: 1, EndB: 0, Junctions: 1},
		{A: 1, B: 2, EndA: 1, EndB: 0, Junctions: 1},
		{A: 2, B: 0, EndA: 1, EndB: 0, Junctions: 1},
	}
	custom, err := ssync.NewTopology("ring-3", traps, segs)
	if err != nil {
		log.Fatal(err)
	}
	report(w, c, custom, 12)
	w.Flush()
}

func report(w *tabwriter.Writer, c *ssync.Circuit, topo *ssync.Topology, cap int) {
	if topo.TotalCapacity() < c.NumQubits {
		return
	}
	cfg := ssync.DefaultCompileConfig()
	resp := ssync.Do(context.Background(), ssync.CompileRequest{Circuit: c, Topo: topo, Config: &cfg})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	res := resp.Result
	m := ssync.Simulate(res.Schedule, topo, ssync.DefaultSimOptions())
	fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.3e\t%.3e\n",
		topo.Name, cap, res.Counts.Shuttles, res.Counts.Swaps, m.ExecutionTime, m.SuccessRate)
}
