// Package workloads generates the benchmark circuits of Table 2 of the
// paper: the Cuccaro ripple-carry adder, Bernstein-Vazirani, QAOA on a
// nearest-neighbour path, the alternating layered ansatz (ALT), the quantum
// Fourier transform, and first-order Trotterised Heisenberg-chain dynamics.
// All generators emit circuits already in the compiler's native basis
// (single-qubit gates + cx).
package workloads

import (
	"fmt"
	"math"
	"strings"

	"ssync/internal/circuit"
	"ssync/internal/device"
)

// Adder builds the Cuccaro ripple-carry adder on bits-bit operands:
// 2*bits + 2 qubits (carry-in, a, b, carry-out). Toffolis are expanded with
// the standard 6-CNOT decomposition, giving 16*bits + 1 two-qubit gates —
// the "short-distance gates" communication pattern of Table 2.
func Adder(bits int) *circuit.Circuit {
	if bits < 1 {
		panic(fmt.Sprintf("workloads: adder needs >= 1 bit, got %d", bits))
	}
	n := 2*bits + 2
	c := circuit.NewCircuit(n)
	c.Name = fmt.Sprintf("Adder_%d", bits)
	// Qubit layout mirrors Cuccaro et al.: interleaved for locality.
	// cin = 0, b_i = 1 + 2i, a_i = 2 + 2i, cout = 2*bits + 1.
	cin := 0
	b := func(i int) int { return 1 + 2*i }
	a := func(i int) int { return 2 + 2*i }
	cout := 2*bits + 1

	maj := func(x, y, z int) { // MAJ(c, b, a)
		c.CX(z, y)
		c.CX(z, x)
		c.CCX(x, y, z)
	}
	uma := func(x, y, z int) { // UMA(c, b, a), 2-CNOT variant
		c.CCX(x, y, z)
		c.CX(z, x)
		c.CX(x, y)
	}

	maj(cin, b(0), a(0))
	for i := 1; i < bits; i++ {
		maj(a(i-1), b(i), a(i))
	}
	c.CX(a(bits-1), cout)
	for i := bits - 1; i >= 1; i-- {
		uma(a(i-1), b(i), a(i))
	}
	uma(cin, b(0), a(0))
	return c.DecomposeToBasis()
}

// AdderOfSize builds the largest Cuccaro adder fitting in at most q qubits
// (used by the application-size sweeps of Figs. 12, 14, 15).
func AdderOfSize(q int) *circuit.Circuit {
	bits := (q - 2) / 2
	if bits < 1 {
		bits = 1
	}
	return Adder(bits)
}

// BV builds the Bernstein-Vazirani circuit over n data qubits plus one
// ancilla with the all-ones secret string: n long-distance CX gates, all
// targeting the ancilla (Table 2's "long-distance gates" pattern).
func BV(n int) *circuit.Circuit {
	if n < 1 {
		panic(fmt.Sprintf("workloads: bv needs >= 1 data qubit, got %d", n))
	}
	c := circuit.NewCircuit(n + 1)
	c.Name = fmt.Sprintf("BV_%d", n)
	anc := n
	for i := 0; i < n; i++ {
		c.H(i)
	}
	c.X(anc).H(anc)
	for i := 0; i < n; i++ {
		c.CX(i, anc)
	}
	for i := 0; i < n; i++ {
		c.H(i)
	}
	return c
}

// QAOA builds a p-layer QAOA MaxCut ansatz on the n-vertex path graph
// (nearest-neighbour gates): per layer, an rzz on every path edge (2 CX
// each) followed by the rx mixer. Two-qubit count: 2*(n-1)*p.
func QAOA(n, p int) *circuit.Circuit {
	if n < 2 || p < 1 {
		panic(fmt.Sprintf("workloads: qaoa needs n>=2, p>=1; got n=%d p=%d", n, p))
	}
	c := circuit.NewCircuit(n)
	c.Name = fmt.Sprintf("QAOA_%d", n)
	for i := 0; i < n; i++ {
		c.H(i)
	}
	for layer := 0; layer < p; layer++ {
		gamma := math.Pi * float64(layer+1) / float64(2*p)
		beta := math.Pi * float64(p-layer) / float64(2*p)
		for i := 0; i+1 < n; i++ {
			c.RZZ(gamma, i, i+1)
		}
		for i := 0; i < n; i++ {
			c.RX(beta, i)
		}
	}
	return c.DecomposeToBasis()
}

// ALT builds the alternating layered ansatz of Nakaji & Yamamoto: each
// superlayer applies RY rotations followed by CX entanglers on even pairs,
// then RY + CX on odd pairs. Two-qubit count per superlayer: n-1 (for even
// n), i.e. nearest-neighbour gates as in Table 2.
func ALT(n, layers int) *circuit.Circuit {
	if n < 2 || layers < 1 {
		panic(fmt.Sprintf("workloads: alt needs n>=2, layers>=1; got n=%d layers=%d", n, layers))
	}
	c := circuit.NewCircuit(n)
	c.Name = fmt.Sprintf("ALT_%d", n)
	angle := func(l, q int) float64 {
		return math.Pi * float64((l*37+q*11)%17+1) / 18
	}
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RY(angle(2*l, q), q)
		}
		for i := 0; i+1 < n; i += 2 {
			c.CX(i, i+1)
		}
		for q := 0; q < n; q++ {
			c.RY(angle(2*l+1, q), q)
		}
		for i := 1; i+1 < n; i += 2 {
			c.CX(i, i+1)
		}
	}
	return c
}

// QFT builds the full n-qubit quantum Fourier transform. Controlled-phase
// gates are decomposed into 2 CX + 3 RZ, matching the paper's QFT gate
// counts (QFT_24: 552, QFT_64: 4032 two-qubit gates); final wire-reversal
// swaps are omitted, as in Table 2.
func QFT(n int) *circuit.Circuit {
	if n < 1 {
		panic(fmt.Sprintf("workloads: qft needs >= 1 qubit, got %d", n))
	}
	c := circuit.NewCircuit(n)
	c.Name = fmt.Sprintf("QFT_%d", n)
	for i := 0; i < n; i++ {
		c.H(i)
		for j := i + 1; j < n; j++ {
			theta := math.Pi / math.Pow(2, float64(j-i))
			c.Append(circuit.New("cp", []int{j, i}, theta))
		}
	}
	return c.DecomposeToBasis()
}

// Heisenberg builds steps first-order Trotter steps of the spin-1/2
// Heisenberg XXX chain on n sites: per step and per bond, an rxx, ryy and
// rzz interaction (2 CX each), i.e. 6*(n-1) two-qubit gates per step.
// Heisenberg_48 with 48 steps gives the 13,536 gates of Table 2.
func Heisenberg(n, steps int) *circuit.Circuit {
	if n < 2 || steps < 1 {
		panic(fmt.Sprintf("workloads: heisenberg needs n>=2, steps>=1; got n=%d steps=%d", n, steps))
	}
	c := circuit.NewCircuit(n)
	c.Name = fmt.Sprintf("Heisenberg_%d", n)
	dt := 0.1
	for s := 0; s < steps; s++ {
		for i := 0; i+1 < n; i++ {
			c.Append(circuit.New("rxx", []int{i, i + 1}, 2*dt))
			c.Append(circuit.New("ryy", []int{i, i + 1}, 2*dt))
			c.RZZ(2*dt, i, i+1)
		}
	}
	return c.DecomposeToBasis()
}

// Spec identifies a named benchmark instance, mirroring Table 2.
type Spec struct {
	Name          string // e.g. "Adder_32"
	Qubits        int
	Communication string
}

// Table2 lists the paper's benchmark suite in its Table 2 order.
func Table2() []Spec {
	return []Spec{
		{"Adder_32", 66, "Short-distance gates"},
		{"QAOA_64", 64, "Nearest-neighbor gates"},
		{"ALT_64", 64, "Nearest-neighbor gates"},
		{"BV_64", 65, "Long-distance gates"},
		{"QFT_24", 24, "Long-distance gates"},
		{"QFT_64", 64, "Long-distance gates"},
		{"Heisenberg_48", 48, "Long-distance gates"},
	}
}

// Panel is one point of an experiment grid: an application on a named
// topology at a per-trap capacity.
type Panel struct {
	// App is a Table 2 name ("QFT_24"), or a benchmark family ("qft")
	// when Size is set.
	App string
	// Size, when non-zero, builds App with BySize at this size.
	Size     int
	Topo     string
	Capacity int // slots per trap
}

// Circuit builds the panel's application; its device is
// device.ByName(p.Topo, p.Capacity).
func (p Panel) Circuit() (*circuit.Circuit, error) {
	if p.Size != 0 {
		return BySize(p.App, p.Size)
	}
	return Build(p.App)
}

// ComparisonPanels lists the panels of Figs. 8–10 in row order: the
// paper's 27 at their paper capacities, or with quick the test-scale
// grid at capacity 8.
func ComparisonPanels(quick bool) []Panel {
	type row struct {
		app   string
		topos []string
	}
	grid, capacity := []row{
		{"ALT_64", []string{"S-4", "G-2x2", "G-2x3", "G-3x3"}},
		{"Adder_32", []string{"S-4", "L-4", "G-2x2", "G-2x3", "G-3x3"}},
		{"BV_64", []string{"S-4", "L-6", "G-2x3", "G-3x3"}},
		{"QAOA_64", []string{"S-4", "L-4", "L-6", "G-2x2", "G-2x3", "G-3x3"}},
		{"QFT_24", []string{"S-4", "L-6", "G-2x2", "G-2x3", "G-3x3"}},
		{"QFT_64", []string{"S-4", "G-2x2", "G-3x3"}},
	}, device.PaperCapacity
	if quick {
		grid, capacity = []row{
			{"Adder_4", []string{"S-4", "G-2x2"}},
			{"BV_12", []string{"S-4"}},
			{"QFT_12", []string{"S-4", "G-2x2"}},
		}, func(string) int { return 8 }
	}
	var panels []Panel
	for _, r := range grid {
		for _, topo := range r.topos {
			panels = append(panels, Panel{App: r.app, Topo: topo, Capacity: capacity(topo)})
		}
	}
	return panels
}

// maxBuildSize bounds Build's name-parsed problem size.
const maxBuildSize = 1 << 14

// ParseSize extracts the problem size from a Table 2-style benchmark
// name ("QFT_24" -> 24). It is the exact parser Build uses, exported so
// services can enforce size limits without risking parser divergence.
func ParseSize(name string) (int, bool) {
	parts := strings.SplitN(name, "_", 2)
	if len(parts) != 2 {
		return 0, false
	}
	var size int
	if _, err := fmt.Sscanf(parts[1], "%d", &size); err != nil {
		return 0, false
	}
	return size, true
}

// Build constructs a benchmark by Table 2 name (e.g. "QFT_24", "Adder_32").
func Build(name string) (*circuit.Circuit, error) {
	parts := strings.SplitN(name, "_", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("workloads: malformed benchmark name %q (want family_size)", name)
	}
	size, ok := ParseSize(name)
	if !ok {
		return nil, fmt.Errorf("workloads: malformed benchmark size in %q", name)
	}
	if size < 1 {
		// Error here so caller-supplied (e.g. network) names get an error
		// instead of reaching the panicking family constructors.
		return nil, fmt.Errorf("workloads: benchmark size must be >= 1 (got %d)", size)
	}
	if size > maxBuildSize {
		// Backstop against name-driven gigabyte allocations (the largest
		// Table 2 entry is 66); call the family constructors directly for
		// deliberate larger instances.
		return nil, fmt.Errorf("workloads: benchmark size %d exceeds the %d limit for named construction", size, maxBuildSize)
	}
	// Table 2 naming: the suffix is the problem size (operand bits for the
	// adder, data qubits for BV), not the device qubit count.
	switch strings.ToLower(parts[0]) {
	case "adder":
		return Adder(size), nil
	case "bv":
		return BV(size), nil
	case "qaoa":
		return QAOA(size, 10), nil
	case "alt":
		return ALT(size, 20), nil
	case "qft":
		return QFT(size), nil
	case "heisenberg":
		return Heisenberg(size, 48), nil
	default:
		return nil, fmt.Errorf("workloads: unknown benchmark family %q", parts[0])
	}
}

// BySize constructs a benchmark family instance by approximate qubit count,
// used for the application-size sweeps. Family is case-insensitive and one
// of adder, bv, qaoa, alt, qft, heisenberg. For adder, size counts qubits
// (the paper labels Adder_32 by operand bits; use Build("Adder_32") for
// that convention).
func BySize(family string, size int) (*circuit.Circuit, error) {
	switch strings.ToLower(family) {
	case "adder":
		// Table 2 convention: Adder_32 means 32-bit operands (66 qubits).
		if size <= 40 {
			return Adder(size), nil
		}
		return AdderOfSize(size), nil
	case "bv":
		return BV(size - 1), nil
	case "qaoa":
		return QAOA(size, 10), nil
	case "alt":
		return ALT(size, 20), nil
	case "qft":
		return QFT(size), nil
	case "heisenberg":
		return Heisenberg(size, 48), nil
	default:
		return nil, fmt.Errorf("workloads: unknown benchmark family %q", family)
	}
}
