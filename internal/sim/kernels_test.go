package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"ssync/internal/circuit"
)

var (
	names1q = []string{"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg"}
	rot1q   = []string{"rx", "ry", "rz", "u1", "p"}
	names2q = []string{"cx", "cz", "cy", "ch", "swap"}
	rot2q   = []string{"cp", "crx", "cry", "crz", "rzz", "rxx", "ryy"}
)

// randomGate draws one gate over nq qubits from the full gate set the
// dense simulator supports, redrawing kinds wider than the register.
func randomGate(r *rand.Rand, nq int) circuit.Gate {
	arity := []int{1, 1, 1, 1, 2, 2, 3, 3}
	kind := r.Intn(len(arity))
	for arity[kind] > nq {
		kind = r.Intn(len(arity))
	}
	qs := r.Perm(nq)[:arity[kind]]
	angle := func() float64 { return r.Float64()*4 - 2 }
	switch kind {
	case 0:
		return circuit.New(names1q[r.Intn(len(names1q))], qs)
	case 1:
		return circuit.New(rot1q[r.Intn(len(rot1q))], qs, angle())
	case 2:
		return circuit.New("u2", qs, angle(), angle())
	case 3:
		return circuit.New("u3", qs, angle(), angle(), angle())
	case 4:
		return circuit.New(names2q[r.Intn(len(names2q))], qs)
	case 5:
		return circuit.New(rot2q[r.Intn(len(rot2q))], qs, angle())
	case 6:
		return circuit.New("ccx", qs)
	default:
		return circuit.New("cswap", qs)
	}
}

// randomCircuit builds a random circuit over the full gate set the dense
// simulator supports: every 1q/2q matrix gate plus ccx and cswap.
func randomCircuit(r *rand.Rand, nq, gates int) *circuit.Circuit {
	c := circuit.NewCircuit(nq)
	for i := 0; i < gates; i++ {
		if err := c.Append(randomGate(r, nq)); err != nil {
			panic(err)
		}
	}
	return c
}

// refApply is the dense reference the gate-class kernels must match: it
// scans all 2ⁿ indices, skips those a gate does not own, and applies
// every 1q/2q gate as its full 2×2 or 4×4 matrix product. ccx and cswap
// have a single kernel each and go through Apply.
func refApply(s *State, g circuit.Gate) error {
	switch len(g.Qubits) {
	case 1:
		m, err := mat1(g.Name, g.Params)
		if err != nil {
			return err
		}
		refApply1(s.amp, m, 1<<uint(g.Qubits[0]))
		return nil
	case 2:
		m, err := mat2(g.Name, g.Params)
		if err != nil {
			return err
		}
		refApply2(s.amp, m, g.Qubits[0], g.Qubits[1])
		return nil
	}
	return s.Apply(g)
}

func refApply1(amp []complex128, m [4]complex128, bit int) {
	for i := range amp {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := amp[i], amp[j]
		amp[i] = m[0]*a0 + m[1]*a1
		amp[j] = m[2]*a0 + m[3]*a1
	}
}

func refApply2(amp []complex128, m [16]complex128, a, b int) {
	bitA, bitB := 1<<uint(a), 1<<uint(b)
	for i := range amp {
		if i&bitA != 0 || i&bitB != 0 {
			continue
		}
		idx := [4]int{i, i | bitB, i | bitA, i | bitA | bitB}
		v := [4]complex128{amp[idx[0]], amp[idx[1]], amp[idx[2]], amp[idx[3]]}
		for r := 0; r < 4; r++ {
			sum := complex(0, 0)
			for c := 0; c < 4; c++ {
				sum += m[r*4+c] * v[c]
			}
			amp[idx[r]] = sum
		}
	}
}

// The gate-class kernels only drop products with a zero matrix entry,
// so they must reproduce the dense reference's amplitudes exactly, on
// every gate and at every qubit position, including the lowest and
// highest bits where the index insertion is at its edges.
func TestKernelsMatchDenseReferenceExactly(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for nq := 1; nq <= 12; nq++ {
		for trial := 0; trial < 10; trial++ {
			kernelsMatchReference(t, r, nq, int64(100*nq+trial))
		}
	}
}

// kernelsMatchReference runs every gate at qubit 0 and the top qubit,
// plus a random circuit, shuffled, through Apply and the dense reference
// from one seeded input, comparing every amplitude after every gate.
func kernelsMatchReference(t *testing.T, r *rand.Rand, nq int, seed int64) {
	t.Helper()
	top := nq - 1
	var gates []circuit.Gate
	for _, q := range []int{0, top} {
		for _, name := range names1q {
			gates = append(gates, circuit.New(name, []int{q}))
		}
		for _, name := range rot1q {
			gates = append(gates, circuit.New(name, []int{q}, r.Float64()*4-2))
		}
		gates = append(gates,
			circuit.New("u2", []int{q}, r.Float64()*4-2, r.Float64()*4-2),
			circuit.New("u3", []int{q}, r.Float64()*4-2, r.Float64()*4-2, r.Float64()*4-2))
	}
	if nq >= 2 {
		for _, qs := range [][]int{{0, top}, {top, 0}} {
			for _, name := range names2q {
				gates = append(gates, circuit.New(name, qs))
			}
			for _, name := range rot2q {
				gates = append(gates, circuit.New(name, qs, r.Float64()*4-2))
			}
		}
	}
	gates = append(gates, randomCircuit(r, nq, 60).Gates...)
	r.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })

	got, err := RandomProductState(nq, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	want := got.Clone()
	for gi, g := range gates {
		if err := got.Apply(g); err != nil {
			t.Fatal(err)
		}
		if err := refApply(want, g); err != nil {
			t.Fatal(err)
		}
		for i := range want.amp {
			if got.amp[i] != want.amp[i] {
				t.Fatalf("%d qubits, seed %d, gate %d (%s): amp[%d] = %v, dense reference %v",
					nq, seed, gi, g, i, got.amp[i], want.amp[i])
			}
		}
	}
}

func BenchmarkStateVecApply(b *testing.B) {
	for _, nq := range []int{16, 18} {
		b.Run(fmt.Sprintf("q%d", nq), func(b *testing.B) {
			s, err := NewState(nq)
			if err != nil {
				b.Fatal(err)
			}
			h := circuit.New("h", []int{nq / 2})
			cx := circuit.New("cx", []int{0, nq - 1})
			b.SetBytes(int64(16 << uint(nq)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Apply(h); err != nil {
					b.Fatal(err)
				}
				if err := s.Apply(cx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
