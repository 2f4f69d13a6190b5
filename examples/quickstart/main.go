// Quickstart: build a circuit, compile it for a QCCD device with S-SYNC,
// simulate it, and verify the compiled schedule is semantically faithful.
package main

import (
	"context"
	"fmt"
	"log"

	"ssync"
)

func main() {
	// A 12-qubit QFT — all-to-all communication, the hardest pattern for a
	// segmented trap architecture.
	c := ssync.QFT(12)

	// A 2x2 grid of traps, 6 ion slots each, segments through X-junctions.
	topo := ssync.GridDevice(2, 2, 6)

	// Compile with the paper's default configuration (gathering mapping,
	// inner weight 0.001, shuttle weight 1, δ = 0.001, m = 2).
	cfg := ssync.DefaultCompileConfig()
	resp := ssync.Do(context.Background(), ssync.CompileRequest{Circuit: c, Topo: topo, Config: &cfg})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	res := resp.Result
	fmt.Printf("compiled %s: %d shuttles, %d SWAPs inserted, %d ops total\n",
		c.Name, res.Counts.Shuttles, res.Counts.Swaps, len(res.Schedule.Ops))

	// Simulate execution under the paper's timing and heating model.
	m := ssync.Simulate(res.Schedule, topo, ssync.DefaultSimOptions())
	fmt.Printf("execution time %.0f µs, success rate %.4f\n", m.ExecutionTime, m.SuccessRate)

	// Prove the schedule implements the same unitary as the source
	// circuit (dense state-vector check).
	if err := ssync.VerifySchedule(c, res.Schedule, 42); err != nil {
		log.Fatal(err)
	}
	fmt.Println("schedule verified against the source circuit")

	// The schedule round-trips through OpenQASM for interop.
	qasmText := ssync.WriteQASM(c)
	reparsed, err := ssync.ParseQASM(qasmText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QASM round trip: %d gates in, %d gates out\n", len(c.Gates), len(reparsed.Gates))
}
