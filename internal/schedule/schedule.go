// Package schedule defines the hardware-compatible instruction stream the
// compilers emit: logical gates annotated with physical context (trap,
// chain length, ion separation) plus the QCCD transport operations —
// split, move, junction crossing, merge — and the SWAP gates inserted to
// bring ions to trap edges.
package schedule

import (
	"fmt"
	"strings"
)

// Kind enumerates schedule operation types.
type Kind int

const (
	// Gate1Q is a single-qubit gate from the source program.
	Gate1Q Kind = iota
	// Gate2Q is a two-qubit gate from the source program, executed with
	// both ions co-trapped.
	Gate2Q
	// SwapGate is a compiler-inserted SWAP exchanging the states of two
	// co-trapped ions (Obs. 2: needed to move ions to trap edges).
	SwapGate
	// Shift repositions an ion into an adjacent empty slot of its trap
	// (rule 4 of Sec. 3.1); it costs transport time but no gate.
	Shift
	// Split separates an ion from a trap chain at a trap end.
	Split
	// Move carries a split ion along a shuttle segment.
	Move
	// JunctionCross steers an ion through an n-path junction.
	JunctionCross
	// Merge recombines a moved ion into the destination trap chain.
	Merge
	// Measure reads out one qubit.
	Measure
	// Barrier is a scheduling fence from the source program.
	Barrier
)

var kindNames = [...]string{
	"gate1q", "gate2q", "swap", "shift", "split", "move", "junction", "merge", "measure", "barrier",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Op is one scheduled operation. Qubits hold *logical* qubit ids; the
// physical annotations (Trap, ChainLen, IonDist, ...) are captured at
// emission time, when the compiler knows the placement.
type Op struct {
	Kind   Kind
	Name   string    // gate mnemonic for Gate1Q/Gate2Q
	Qubits []int     // logical qubits involved
	Params []float64 // gate parameters

	Trap      int // trap where the op happens (gates, split, merge, shift)
	Segment   int // segment id for Move/JunctionCross
	ChainLen  int // ions in the trap when executed (FM gate time, A(N))
	IonDist   int // ions strictly between the two gate ions (PM/AM time)
	Hops      int // linear move steps for Move
	Junctions int // junctions crossed for JunctionCross
	SlotA     int // source slot for SwapGate/Shift/Split
	SlotB     int // destination slot for SwapGate/Shift
}

// Schedule is the ordered op stream for one compiled program.
type Schedule struct {
	NumQubits int
	Ops       []Op
}

// New returns an empty schedule over n logical qubits.
func New(n int) *Schedule { return &Schedule{NumQubits: n} }

// Append adds an op.
func (s *Schedule) Append(op Op) { s.Ops = append(s.Ops, op) }

// Counts aggregates the headline metrics of Figs. 8–9.
type Counts struct {
	Shuttles    int // one per split-move-merge hop
	Swaps       int // inserted SWAP gates
	TwoQubit    int // program two-qubit gates executed
	SingleQubit int
	Shifts      int
	Junctions   int // total junctions crossed
	Measures    int
}

// Counts scans the schedule and tallies operation classes. A shuttle is
// counted per Split (every hop is a full split-move-merge).
func (s *Schedule) Counts() Counts {
	var c Counts
	for _, op := range s.Ops {
		switch op.Kind {
		case Split:
			c.Shuttles++
		case SwapGate:
			c.Swaps++
		case Gate2Q:
			c.TwoQubit++
		case Gate1Q:
			c.SingleQubit++
		case Shift:
			c.Shifts++
		case JunctionCross:
			c.Junctions += op.Junctions
		case Measure:
			c.Measures++
		}
	}
	return c
}

// LogicalGates extracts the program gates (1Q, 2Q, measure, barrier) in
// scheduled order, dropping transport and inserted SWAPs. Because SWAP
// insertion only relocates ions — logical states ride along — replaying
// these gates must reproduce the source circuit's unitary; the simulator's
// verifier checks exactly that.
func (s *Schedule) LogicalGates() []Op {
	var out []Op
	for _, op := range s.Ops {
		switch op.Kind {
		case Gate1Q, Gate2Q, Measure, Barrier:
			out = append(out, op)
		}
	}
	return out
}

// Validate performs structural checks: qubit ranges, op arities,
// annotation sanity.
func (s *Schedule) Validate() error {
	if s.NumQubits < 0 {
		return fmt.Errorf("schedule: %d qubits", s.NumQubits)
	}
	for i, op := range s.Ops {
		for _, q := range op.Qubits {
			if q < 0 || q >= s.NumQubits {
				return fmt.Errorf("schedule: op %d (%s) references qubit %d out of range", i, op.Kind, q)
			}
		}
		switch op.Kind {
		case Gate2Q, SwapGate:
			if len(op.Qubits) != 2 {
				return fmt.Errorf("schedule: op %d (%s) has %d qubits, want 2", i, op.Kind, len(op.Qubits))
			}
			if op.ChainLen < 2 {
				return fmt.Errorf("schedule: op %d (%s) has chain length %d < 2", i, op.Kind, op.ChainLen)
			}
		case Gate1Q, Measure, Split, Merge, Shift, Move, JunctionCross:
			if len(op.Qubits) != 1 {
				return fmt.Errorf("schedule: op %d (%s) has %d qubits, want 1", i, op.Kind, len(op.Qubits))
			}
		}
		switch {
		case op.Kind == Move && op.Hops < 1:
			return fmt.Errorf("schedule: op %d (move) has %d hops", i, op.Hops)
		case op.Kind == JunctionCross && op.Junctions < 1:
			return fmt.Errorf("schedule: op %d (junction) crosses %d junctions", i, op.Junctions)
		}
	}
	return nil
}

// String renders a compact textual listing (for debugging and examples).
func (s *Schedule) String() string {
	var b strings.Builder
	for i, op := range s.Ops {
		fmt.Fprintf(&b, "%4d %-8s", i, op.Kind)
		if op.Name != "" {
			fmt.Fprintf(&b, " %-6s", op.Name)
		}
		fmt.Fprintf(&b, " q%v", op.Qubits)
		if op.Kind != Move && op.Kind != JunctionCross {
			fmt.Fprintf(&b, " trap=%d", op.Trap)
		} else {
			fmt.Fprintf(&b, " seg=%d", op.Segment)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
