package exp

import (
	"fmt"
	"strings"

	"ssync/internal/noise"
	"ssync/internal/workloads"
)

// Table1 renders the QCCD operation-time table (Table 1).
func Table1() string {
	p := noise.DefaultParams()
	var b strings.Builder
	b.WriteString("Table 1 — QCCD operation times\n")
	fmt.Fprintf(&b, "%-24s %10s\n", "operation", "time (µs)")
	fmt.Fprintf(&b, "%-24s %10.0f\n", "Move", p.MoveTime)
	fmt.Fprintf(&b, "%-24s %10.0f\n", "Split", p.SplitTime)
	fmt.Fprintf(&b, "%-24s %10.0f\n", "Merge", p.MergeTime)
	fmt.Fprintf(&b, "%-24s %7.0f+%.0fn\n", "Cross n-path junction", p.JunctionBase, p.JunctionPerN)
	return b.String()
}

// Table2Row is one benchmark-suite entry with regenerated gate counts.
type Table2Row struct {
	Name          string
	Qubits        int
	TwoQubitGates int
	Communication string
}

// Table2 regenerates the benchmark-suite table (Table 2) from the workload
// generators, reporting the actual generated qubit and gate counts.
func Table2() (string, []Table2Row, error) {
	var rows []Table2Row
	for _, spec := range workloads.Table2() {
		c, err := workloads.Build(spec.Name)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, Table2Row{
			Name:          spec.Name,
			Qubits:        c.NumQubits,
			TwoQubitGates: c.TwoQubitCount(),
			Communication: spec.Communication,
		})
	}
	var b strings.Builder
	b.WriteString("Table 2 — Benchmark suite (regenerated)\n")
	fmt.Fprintf(&b, "%-15s %7s %9s  %s\n", "application", "qubits", "2Q gates", "communication")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %7d %9d  %s\n", r.Name, r.Qubits, r.TwoQubitGates, r.Communication)
	}
	return b.String(), rows, nil
}
