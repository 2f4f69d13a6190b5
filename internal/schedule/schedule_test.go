package schedule

import (
	"strings"
	"testing"
)

func sample() *Schedule {
	s := New(4)
	s.Append(Op{Kind: Gate1Q, Name: "h", Qubits: []int{0}, Trap: 0, ChainLen: 3})
	s.Append(Op{Kind: SwapGate, Qubits: []int{0, 1}, Trap: 0, ChainLen: 3})
	s.Append(Op{Kind: Split, Qubits: []int{0}, Trap: 0, ChainLen: 3})
	s.Append(Op{Kind: Move, Qubits: []int{0}, Segment: 0, Hops: 1})
	s.Append(Op{Kind: JunctionCross, Qubits: []int{0}, Segment: 0, Junctions: 1})
	s.Append(Op{Kind: Merge, Qubits: []int{0}, Trap: 1, ChainLen: 2})
	s.Append(Op{Kind: Gate2Q, Name: "cx", Qubits: []int{0, 2}, Trap: 1, ChainLen: 2})
	s.Append(Op{Kind: Measure, Qubits: []int{0}, Trap: 1})
	return s
}

func TestCounts(t *testing.T) {
	c := sample().Counts()
	if c.Shuttles != 1 {
		t.Errorf("shuttles = %d, want 1", c.Shuttles)
	}
	if c.Swaps != 1 {
		t.Errorf("swaps = %d, want 1", c.Swaps)
	}
	if c.TwoQubit != 1 || c.SingleQubit != 1 {
		t.Errorf("gate counts = %d/%d, want 1/1", c.TwoQubit, c.SingleQubit)
	}
	if c.Junctions != 1 {
		t.Errorf("junctions = %d, want 1", c.Junctions)
	}
	if c.Measures != 1 {
		t.Errorf("measures = %d, want 1", c.Measures)
	}
}

func TestLogicalGates(t *testing.T) {
	lg := sample().LogicalGates()
	if len(lg) != 3 {
		t.Fatalf("logical gates = %d, want 3 (h, cx, measure)", len(lg))
	}
	if lg[0].Name != "h" || lg[1].Name != "cx" || lg[2].Kind != Measure {
		t.Errorf("logical gate stream wrong: %+v", lg)
	}
}

func TestValidate(t *testing.T) {
	s := sample()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New(2)
	bad.Append(Op{Kind: Gate2Q, Qubits: []int{0, 5}, ChainLen: 2})
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range qubit accepted")
	}
	bad2 := New(2)
	bad2.Append(Op{Kind: Gate2Q, Qubits: []int{0}, ChainLen: 2})
	if err := bad2.Validate(); err == nil {
		t.Error("wrong arity accepted")
	}
	bad3 := New(2)
	bad3.Append(Op{Kind: Gate2Q, Qubits: []int{0, 1}, ChainLen: 1})
	if err := bad3.Validate(); err == nil {
		t.Error("chain length < 2 accepted for 2Q gate")
	}
	bad4 := New(2)
	bad4.Append(Op{Kind: Move, Qubits: []int{0}, Hops: 0})
	if err := bad4.Validate(); err == nil {
		t.Error("zero-hop move accepted")
	}
	bad5 := New(2)
	bad5.Append(Op{Kind: JunctionCross, Junctions: 1})
	if err := bad5.Validate(); err == nil {
		t.Error("junction crossing without an ion accepted")
	}
	if err := New(-1).Validate(); err == nil {
		t.Error("negative qubit count accepted")
	}
}

func TestKindString(t *testing.T) {
	if Split.String() != "split" || Gate2Q.String() != "gate2q" {
		t.Errorf("kind names wrong: %s %s", Split, Gate2Q)
	}
}

func TestScheduleString(t *testing.T) {
	out := sample().String()
	for _, want := range []string{"split", "merge", "swap", "cx"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}
