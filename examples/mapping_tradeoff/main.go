// Mapping trade-off: the Fig.-12 study as a library example — compare the
// gathering, even-divided and STA initial mappings on one workload and
// device. The paper's finding: gathering minimises shuttles but, under FM
// gates (whose duration grows with chain length), longer chains inflate
// execution time and can cost success rate; even-divided is the mirror
// image; STA sits between.
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
	topoName := flag.String("topo", "G-2x3", "device topology")
	cap := flag.Int("cap", 17, "per-trap capacity")
	flag.Parse()

	c, err := ssync.Benchmark(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := ssync.TopologyByName(*topoName, *cap)
	if err != nil {
		log.Fatal(err)
	}
	if topo.TotalCapacity() < c.NumQubits {
		log.Fatalf("%s does not fit on %s with capacity %d", c.Name, topo.Name, *cap)
	}
	fmt.Printf("%s on %s (capacity %d)\n\n", c.Name, topo.Name, *cap)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 3, ' ', 0)
	fmt.Fprintln(w, "mapping\tshuttles\tswaps\tmax chain\texec (µs)\tsuccess")
	for _, strat := range []ssync.MappingStrategy{
		ssync.GatheringMapping, ssync.EvenDividedMapping, ssync.STAMapping,
	} {
		cfg := ssync.DefaultCompileConfig()
		cfg.Mapping.Strategy = strat
		resp := ssync.Do(context.Background(), ssync.CompileRequest{Circuit: c, Topo: topo, Config: &cfg})
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		res := resp.Result
		m := ssync.Simulate(res.Schedule, topo, ssync.DefaultSimOptions())
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%.3e\t%.3e\n",
			strat, res.Counts.Shuttles, res.Counts.Swaps,
			maxChain(res), m.ExecutionTime, m.SuccessRate)
	}
	w.Flush()
	fmt.Println("\nNote how fewer shuttles (gathering) trades against FM gate time in longer chains.")
}

// maxChain scans the schedule for the longest ion chain any two-qubit gate
// ran in — the quantity that drives FM gate duration.
func maxChain(res *ssync.CompileResult) int {
	max := 0
	for _, op := range res.Schedule.Ops {
		if op.ChainLen > max {
			max = op.ChainLen
		}
	}
	return max
}
