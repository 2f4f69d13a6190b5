package circuit

import (
	"fmt"
	"math"
)

// Circuit is an ordered list of gates over NumQubits logical qubits. The
// zero value is unusable; construct with NewCircuit.
type Circuit struct {
	NumQubits int
	Name      string
	Gates     []Gate
}

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: non-positive qubit count %d", n))
	}
	return &Circuit{NumQubits: n}
}

// Append validates g and appends it.
func (c *Circuit) Append(g Gate) error {
	if err := g.Validate(c.NumQubits); err != nil {
		return err
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// mustAppend appends a known-good gate; builder methods funnel through here.
func (c *Circuit) mustAppend(g Gate) *Circuit {
	if err := c.Append(g); err != nil {
		panic(err)
	}
	return c
}

// Builder helpers. Each appends one gate and returns the circuit for chaining.

func (c *Circuit) H(q int) *Circuit   { return c.mustAppend(New("h", []int{q})) }
func (c *Circuit) X(q int) *Circuit   { return c.mustAppend(New("x", []int{q})) }
func (c *Circuit) Y(q int) *Circuit   { return c.mustAppend(New("y", []int{q})) }
func (c *Circuit) Z(q int) *Circuit   { return c.mustAppend(New("z", []int{q})) }
func (c *Circuit) S(q int) *Circuit   { return c.mustAppend(New("s", []int{q})) }
func (c *Circuit) Sdg(q int) *Circuit { return c.mustAppend(New("sdg", []int{q})) }
func (c *Circuit) T(q int) *Circuit   { return c.mustAppend(New("t", []int{q})) }
func (c *Circuit) Tdg(q int) *Circuit { return c.mustAppend(New("tdg", []int{q})) }
func (c *Circuit) RX(theta float64, q int) *Circuit {
	return c.mustAppend(New("rx", []int{q}, theta))
}
func (c *Circuit) RY(theta float64, q int) *Circuit {
	return c.mustAppend(New("ry", []int{q}, theta))
}
func (c *Circuit) RZ(theta float64, q int) *Circuit {
	return c.mustAppend(New("rz", []int{q}, theta))
}
func (c *Circuit) CX(ctrl, tgt int) *Circuit { return c.mustAppend(New("cx", []int{ctrl, tgt})) }
func (c *Circuit) CZ(a, b int) *Circuit      { return c.mustAppend(New("cz", []int{a, b})) }
func (c *Circuit) Swap(a, b int) *Circuit    { return c.mustAppend(New("swap", []int{a, b})) }
func (c *Circuit) RZZ(theta float64, a, b int) *Circuit {
	return c.mustAppend(New("rzz", []int{a, b}, theta))
}
func (c *Circuit) CCX(a, b, t int) *Circuit { return c.mustAppend(New("ccx", []int{a, b, t})) }
func (c *Circuit) Measure(q int) *Circuit   { return c.mustAppend(New("measure", []int{q})) }
func (c *Circuit) Barrier(qs ...int) *Circuit {
	if len(qs) == 0 {
		qs = make([]int, c.NumQubits)
		for i := range qs {
			qs[i] = i
		}
	}
	return c.mustAppend(New("barrier", qs))
}

// TwoQubitCount returns the number of two-qubit gates.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// SingleQubitCount returns the number of single-qubit gates (excluding
// measure, reset and barrier).
func (c *Circuit) SingleQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsSingleQubit() && g.Name != "measure" && g.Name != "reset" {
			n++
		}
	}
	return n
}

// Depth computes the circuit depth counting every gate (barriers synchronise
// all listed wires but add no depth themselves).
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits)
	depth := 0
	for _, g := range c.Gates {
		max := 0
		for _, q := range g.Qubits {
			if level[q] > max {
				max = level[q]
			}
		}
		add := 1
		if g.Name == "barrier" {
			add = 0
		}
		for _, q := range g.Qubits {
			level[q] = max + add
		}
		if max+add > depth {
			depth = max + add
		}
	}
	return depth
}

// Clone deep-copies the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NumQubits: c.NumQubits, Name: c.Name, Gates: make([]Gate, len(c.Gates))}
	for i, g := range c.Gates {
		out.Gates[i] = Gate{
			Name:   g.Name,
			Qubits: append([]int(nil), g.Qubits...),
			Params: append([]float64(nil), g.Params...),
		}
	}
	return out
}

// Validate re-checks every gate; useful after programmatic construction.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if err := g.Validate(c.NumQubits); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// InteractionCounts returns, for every unordered qubit pair that interacts,
// the number of two-qubit gates between them. Used by the STA initial
// mapping to cluster strongly-interacting qubits.
func (c *Circuit) InteractionCounts() map[[2]int]int {
	m := make(map[[2]int]int)
	for _, g := range c.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if a > b {
			a, b = b, a
		}
		m[[2]int{a, b}]++
	}
	return m
}

// DecomposeToBasis rewrites the circuit into the compiler's native basis:
// single-qubit gates + {cx, swap}. cz/cy/ch/controlled-rotations, rxx/ryy/
// rzz/ms and ccx/cswap are expanded with standard textbook decompositions;
// everything already in the basis passes through unchanged.
func (c *Circuit) DecomposeToBasis() *Circuit {
	out := NewCircuit(c.NumQubits)
	out.Name = c.Name
	for _, g := range c.Gates {
		start := len(out.Gates)
		decomposeInto(out, g)
		if g.Cond != nil {
			// A classically-controlled gate decomposes into the same
			// sequence with every piece under the same condition: the
			// classical register cannot change mid-sequence, so
			// if(c==n){ABC} ≡ if(c==n)A; if(c==n)B; if(c==n)C. Each piece
			// gets its own copy so the output never aliases the input's
			// condition (matching Remap's discipline).
			for i := start; i < len(out.Gates); i++ {
				cond := *g.Cond
				out.Gates[i].Cond = &cond
			}
		}
	}
	return out
}

func decomposeInto(out *Circuit, g Gate) {
	q := g.Qubits
	switch g.Name {
	case "cz":
		out.H(q[1]).CX(q[0], q[1]).H(q[1])
	case "cy":
		out.Sdg(q[1]).CX(q[0], q[1]).S(q[1])
	case "ch":
		// ch = (I⊗RY(π/4)) cx (I⊗RY(-π/4)) up to phase.
		out.RY(math.Pi/4, q[1]).CX(q[0], q[1]).RY(-math.Pi/4, q[1])
	case "cp", "cu1":
		theta := g.Params[0]
		out.RZ(theta/2, q[0]).CX(q[0], q[1]).RZ(-theta/2, q[1]).CX(q[0], q[1]).RZ(theta/2, q[1])
	case "crz":
		theta := g.Params[0]
		out.RZ(theta/2, q[1]).CX(q[0], q[1]).RZ(-theta/2, q[1]).CX(q[0], q[1])
	case "crx":
		theta := g.Params[0]
		out.H(q[1])
		decomposeInto(out, New("crz", q, theta))
		out.H(q[1])
	case "cry":
		theta := g.Params[0]
		out.RY(theta/2, q[1]).CX(q[0], q[1]).RY(-theta/2, q[1]).CX(q[0], q[1])
	case "rzz":
		theta := g.Params[0]
		out.CX(q[0], q[1]).RZ(theta, q[1]).CX(q[0], q[1])
	case "rxx", "ms":
		theta := g.Params[0]
		out.H(q[0]).H(q[1])
		out.CX(q[0], q[1]).RZ(theta, q[1]).CX(q[0], q[1])
		out.H(q[0]).H(q[1])
	case "ryy":
		theta := g.Params[0]
		out.RX(math.Pi/2, q[0]).RX(math.Pi/2, q[1])
		out.CX(q[0], q[1]).RZ(theta, q[1]).CX(q[0], q[1])
		out.RX(-math.Pi/2, q[0]).RX(-math.Pi/2, q[1])
	case "ccx":
		a, b, t := q[0], q[1], q[2]
		out.H(t)
		out.CX(b, t).Tdg(t).CX(a, t).T(t).CX(b, t).Tdg(t).CX(a, t)
		out.T(b).T(t).H(t)
		out.CX(a, b).T(a).Tdg(b).CX(a, b)
	case "cswap":
		a, b, t := q[0], q[1], q[2]
		out.CX(t, b)
		decomposeInto(out, New("ccx", []int{a, b, t}))
		out.CX(t, b)
	default:
		out.mustAppend(g)
	}
}
