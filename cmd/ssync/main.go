// Command ssync compiles a quantum program for a QCCD device and reports
// shuttle/SWAP counts, execution time and simulated success rate.
//
// Usage:
//
//	ssync -bench QFT_24 -topo G-2x3
//	ssync -qasm program.qasm -topo L-6 -cap 17 -compiler murali
//	ssync -bench Adder_32 -topo S-4 -mapping even-divided -gate AM2 -v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ssync"
	"ssync/internal/mapping"
	"ssync/internal/noise"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark name from Table 2 (e.g. QFT_24, Adder_32, BV_64)")
		qasmFile  = flag.String("qasm", "", "path to an OpenQASM 2.0 file (alternative to -bench)")
		topoName  = flag.String("topo", "G-2x3", "topology: L-n, G-rxc or S-n")
		capacity  = flag.Int("cap", 0, "per-trap capacity (default: the paper's choice for the topology)")
		compiler  = flag.String("compiler", "ssync", "compiler: ssync, murali, dai or ssync-annealed")
		mapName   = flag.String("mapping", "gathering", "initial mapping for ssync: gathering, even-divided or sta")
		gateModel = flag.String("gate", "FM", "two-qubit gate implementation: FM, PM, AM1 or AM2")
		verify    = flag.Bool("verify", false, "verify schedule semantics by state-vector simulation (<= 22 qubits)")
		verbose   = flag.Bool("v", false, "print the full op schedule")
	)
	flag.Parse()
	if err := run(*benchName, *qasmFile, *topoName, *capacity, *compiler, *mapName, *gateModel, *verify, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "ssync:", err)
		os.Exit(1)
	}
}

func run(benchName, qasmFile, topoName string, capacity int, compiler, mapName, gateModel string, verify, verbose bool) error {
	var c *ssync.Circuit
	var err error
	switch {
	case benchName != "" && qasmFile != "":
		return fmt.Errorf("pass either -bench or -qasm, not both")
	case benchName != "":
		c, err = ssync.Benchmark(benchName)
	case qasmFile != "":
		var src []byte
		src, err = os.ReadFile(qasmFile)
		if err == nil {
			c, err = ssync.ParseQASM(string(src))
		}
	default:
		return fmt.Errorf("one of -bench or -qasm is required")
	}
	if err != nil {
		return err
	}

	if capacity == 0 {
		capacity = ssync.PaperCapacity(topoName)
	}
	topo, err := ssync.TopologyByName(topoName, capacity)
	if err != nil {
		return err
	}

	cfg := ssync.DefaultCompileConfig()
	if cfg.Mapping.Strategy, err = mapping.ParseStrategy(mapName); err != nil {
		return err
	}
	opt := ssync.DefaultSimOptions()
	if opt.Params.Model, err = noise.ParseGateModel(gateModel); err != nil {
		return err
	}
	resp := ssync.Do(context.Background(), ssync.CompileRequest{Circuit: c, Topo: topo, Compiler: compiler, Config: &cfg})
	if resp.Err != nil {
		return resp.Err
	}
	res := resp.Result
	m := ssync.Simulate(res.Schedule, topo, opt)

	fmt.Printf("circuit:        %s (%d qubits, %d 2Q gates)\n",
		name(c), c.NumQubits, c.TwoQubitCount())
	fmt.Printf("device:         %s (%d traps x %d slots)\n", topo.Name, topo.NumTraps(), capacity)
	fmt.Printf("compiler:       %s\n", compiler)
	fmt.Printf("shuttles:       %d\n", res.Counts.Shuttles)
	fmt.Printf("swaps:          %d\n", res.Counts.Swaps)
	fmt.Printf("2Q gates:       %d\n", res.Counts.TwoQubit)
	fmt.Printf("execution time: %.1f µs\n", m.ExecutionTime)
	fmt.Printf("success rate:   %.4e (%s gates)\n", m.SuccessRate, gateModel)
	fmt.Printf("compile time:   %s\n", res.CompileTime)
	if verify {
		if err := ssync.VerifySchedule(c, res.Schedule, 1); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Println("verification:   OK (schedule matches circuit semantics)")
	}
	if verbose {
		fmt.Println("\nschedule:")
		fmt.Print(res.Schedule)
	}
	return nil
}

func name(c *ssync.Circuit) string {
	if c.Name != "" {
		return c.Name
	}
	return "qasm input"
}
