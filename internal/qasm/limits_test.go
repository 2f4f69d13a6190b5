package qasm

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The parser bounds declared qubits and parsed gates so hostile programs
// fail with errors instead of exhausting memory.
func TestParseResourceLimits(t *testing.T) {
	if _, err := Parse("OPENQASM 2.0;\nqreg q[2000000000];\nh q[0];"); err == nil {
		t.Error("oversized register accepted")
	}
	// Individually-legal registers whose total exceeds the cap.
	if _, err := Parse("qreg a[1048576];\nqreg b[1];\nh a[0];"); err == nil {
		t.Error("oversized total qubit count accepted")
	}
	// A register at exactly the cap still parses.
	if _, err := Parse("qreg q[1048576];\nh q[0];"); err != nil {
		t.Errorf("at-cap register rejected: %v", err)
	}
	// Broadcast gates over a large register hit the gate cap with an
	// error, not an OOM.
	var b strings.Builder
	b.WriteString("qreg q[1048576];\n")
	for i := 0; i < 5; i++ {
		b.WriteString("h q;\n")
	}
	if _, err := Parse(b.String()); err == nil || !strings.Contains(err.Error(), "gate limit") {
		t.Errorf("gate-limit breach not reported: %v", err)
	}
}

// expandingPrograms are tiny sources that expand to millions of gates:
// broadcasts over a huge register, and nested two-call gate definitions.
func expandingPrograms() map[string]string {
	var nested strings.Builder
	nested.WriteString("OPENQASM 2.0;\ngate g0 a { h a; }\n")
	for i := 1; i <= 21; i++ {
		fmt.Fprintf(&nested, "gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	nested.WriteString("qreg q[1];\ng21 q[0];\n")
	return map[string]string{
		"broadcast": "qreg q[1048576]; h q; h q; h q;", // 3,145,728 gates
		"nested":    nested.String(),                   // 2,097,152 gates
	}
}

// The gate budget grows with the source, so a few hundred bytes cannot
// buy millions of gates: both programs fail fast with the gate-limit
// error instead of expanding in full.
func TestParseBoundsExpansionBySourceSize(t *testing.T) {
	for name, src := range expandingPrograms() {
		start := time.Now()
		_, err := Parse(src)
		took := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), "gate limit") {
			t.Errorf("%s (%d bytes): want a gate-limit error, got %v", name, len(src), err)
		}
		if took > 100*time.Millisecond {
			t.Errorf("%s (%d bytes): refused after %v, want under 100ms", name, len(src), took)
		}
	}
	// The budget never falls below minGateBudget, so small programs with
	// large registers keep working.
	var b strings.Builder
	b.WriteString("qreg q[1024];\n")
	for i := 0; i < 4; i++ {
		b.WriteString("h q;\n")
	}
	if c, err := Parse(b.String()); err != nil || len(c.Gates) != minGateBudget {
		t.Errorf("program at the budget floor: %v", err)
	}
	if _, err := Parse(b.String() + "h q[0];\n"); err == nil {
		t.Error("program one gate past the budget floor accepted")
	}
}
