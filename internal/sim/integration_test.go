package sim

import (
	"math/rand"
	"testing"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/qasm"
	"ssync/internal/workloads"
)

// HardwareCircuit lowering must be unitarily equivalent to the source
// circuit: inserted SWAPs relocate states, and the trailing placement
// permutation is exactly what VerifySchedule's gate-stream replay absorbs.
func TestHardwareCircuitEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		topo := device.Linear(2, 4)
		nq := 4 + r.Intn(3)
		c := circuit.NewCircuit(nq)
		for i := 0; i < 15; i++ {
			a := r.Intn(nq)
			b := r.Intn(nq - 1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		}
		res, err := core.Compile(core.DefaultConfig(), c, topo)
		if err != nil {
			t.Fatal(err)
		}
		hw, ionOf, err := core.HardwareCircuit(res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		// The hardware circuit leaves logical qubit q's state on ion
		// ionOf[q]; undoing that permutation must recover the source
		// circuit's output exactly.
		rng := rand.New(rand.NewSource(int64(trial)))
		ref, _ := RandomProductState(nq, rng)
		want := ref.Clone()
		if err := want.ApplyCircuit(c.DecomposeToBasis()); err != nil {
			t.Fatal(err)
		}
		got := ref.Clone()
		if err := got.ApplyCircuit(hw); err != nil {
			t.Fatal(err)
		}
		perm := append([]int(nil), ionOf...) // perm[q] = wire holding q's state
		for q := 0; q < nq; q++ {
			for perm[q] != q {
				w := perm[q]
				if err := got.Apply(circuit.New("swap", []int{q, w})); err != nil {
					t.Fatal(err)
				}
				// States on wires q and w swapped: fix up whichever logical
				// qubit pointed at wire q.
				for l := 0; l < nq; l++ {
					if perm[l] == q {
						perm[l] = w
						break
					}
				}
				perm[q] = q
			}
		}
		if ov := Overlap(want, got); ov < 1-1e-7 {
			t.Fatalf("trial %d: hardware circuit diverges (overlap %.9f)", trial, ov)
		}
	}
}

// The lowered hardware circuit must be valid QASM output.
func TestHardwareCircuitQASMExport(t *testing.T) {
	topo := device.Linear(2, 4)
	c := workloads.QFT(6)
	res, err := core.Compile(core.DefaultConfig(), c, topo)
	if err != nil {
		t.Fatal(err)
	}
	hw, _, err := core.HardwareCircuit(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	out := qasm.Write(hw)
	back, err := qasm.Parse(out)
	if err != nil {
		t.Fatalf("exported QASM unparseable: %v", err)
	}
	if len(back.Gates) != len(hw.Gates) {
		t.Errorf("QASM round trip %d -> %d gates", len(hw.Gates), len(back.Gates))
	}
}

func TestTrapProgramPartition(t *testing.T) {
	topo := device.Grid(2, 2, 6)
	c := workloads.QFT(12)
	res, err := core.Compile(core.DefaultConfig(), c, topo)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.TrapProgram(res.Schedule, topo.NumTraps())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ops := range prog {
		total += len(ops)
	}
	counts := res.Schedule.Counts()
	want := counts.TwoQubit + counts.SingleQubit + counts.Swaps + counts.Measures
	if total != want {
		t.Errorf("trap program holds %d gate ops, want %d", total, want)
	}
}

// Commutation-aware compilation must still produce semantically faithful
// schedules — the end-to-end check of the relaxed DAG inside the compiler.
func TestCommutationAwareCompileSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		topo := device.Grid(2, 2, 3)
		nq := 4 + r.Intn(3)
		c := circuit.NewCircuit(nq)
		for i := 0; i < 20; i++ {
			switch r.Intn(4) {
			case 0:
				c.RZ(r.Float64(), r.Intn(nq))
			case 1:
				c.H(r.Intn(nq))
			default:
				a := r.Intn(nq)
				b := r.Intn(nq - 1)
				if b >= a {
					b++
				}
				c.CX(a, b)
			}
		}
		cfg := core.DefaultConfig()
		cfg.CommutationAware = true
		res, err := core.Compile(cfg, c, topo)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySchedule(c, res.Schedule, int64(trial)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
