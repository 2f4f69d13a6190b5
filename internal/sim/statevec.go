// Package sim contains the two simulators behind the paper's evaluation:
// an analytical device simulator (execution time + Eq. 4 success rate over
// a compiled schedule) and a dense state-vector simulator used to verify
// that compiled schedules preserve the source circuit's semantics. The
// state-vector simulator applies each gate on the calling goroutine with
// a kernel chosen by the gate's matrix class, and verifies share their
// reference simulations through a byte-bounded cache (SharedRefs).
package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync/atomic"

	"ssync/internal/circuit"
)

// MaxStateQubits bounds the dense simulator (2^22 amplitudes ≈ 64 MiB).
const MaxStateQubits = 22

// State is a dense n-qubit state vector. Qubit 0 is the least significant
// bit of the amplitude index.
type State struct {
	n   int
	amp []complex128
}

// cApplies counts gate applications across every State in the process
// (mirrored into Stats.Applies and ssync_sim_applies_total).
var cApplies atomic.Uint64

// NewState returns |0...0> over n qubits.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxStateQubits {
		return nil, fmt.Errorf("sim: state size %d out of range [1,%d]", n, MaxStateQubits)
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s, nil
}

// Amplitude returns amplitude i.
func (s *State) Amplitude(i int) complex128 { return s.amp[i] }

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{n: s.n, amp: append([]complex128(nil), s.amp...)}
}

// copyFrom overwrites this state's amplitudes with src's, reusing the
// existing backing array when it is large enough.
func (s *State) copyFrom(src *State) {
	s.n = src.n
	if cap(s.amp) >= len(src.amp) {
		s.amp = s.amp[:len(src.amp)]
	} else {
		s.amp = make([]complex128, len(src.amp))
	}
	copy(s.amp, src.amp)
}

// Gate kernels. Each walks only the base indices a gate owns — those
// with the gate's target bits clear — by counting k over the smaller
// index space and inserting zeros at the target bits, and uses the
// cheapest form the gate's matrix allows. Every kernel forms the same
// products in the same order as the dense 2×2/4×4 product and only
// drops terms whose matrix entry is zero (or a factor of exactly 1), so
// every amplitude equals the dense form's.

// insertZero widens k by a zero bit at the position of the single-bit
// mask bit, shifting the bits at and above it up by one.
func insertZero(k, bit int) int {
	return (k&^(bit-1))<<1 | k&(bit-1)
}

// apply1 applies the 2×2 matrix m to qubit q.
func (s *State) apply1(m [4]complex128, q int) {
	cApplies.Add(1)
	amp, bit := s.amp, 1<<uint(q)
	half := len(amp) >> 1
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	if m1 == 0 && m2 == 0 {
		// Diagonal: a phase on each half. A |0⟩ phase of exactly 1
		// leaves that half untouched.
		if m0 == 1 {
			for k := 0; k < half; k++ {
				j := insertZero(k, bit) | bit
				amp[j] = m3 * amp[j]
			}
			return
		}
		for k := 0; k < half; k++ {
			i := insertZero(k, bit)
			j := i | bit
			amp[i] = m0 * amp[i]
			amp[j] = m3 * amp[j]
		}
		return
	}
	for k := 0; k < half; k++ {
		i := insertZero(k, bit)
		j := i | bit
		a0, a1 := amp[i], amp[j]
		amp[i] = m0*a0 + m1*a1
		amp[j] = m2*a0 + m3*a1
	}
}

// base2 returns the k-th base index of a two-qubit gate whose bit masks
// are lo < hi: k with zeros inserted at both bits, the lower one first.
func base2(k, lo, hi int) int {
	return insertZero(insertZero(k, lo), hi)
}

// order2 returns the two single-bit masks of qubits a and b, lower first.
func order2(a, b int) (lo, hi int) {
	lo, hi = 1<<uint(a), 1<<uint(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// applyCX swaps the two amplitudes of each pair whose control bit is
// set: the |10⟩ and |11⟩ rows of the controlled-X matrix are
// permutation rows, so no arithmetic is needed.
func (s *State) applyCX(c, t int) {
	cApplies.Add(1)
	amp, bitC, bitT := s.amp, 1<<uint(c), 1<<uint(t)
	lo, hi := order2(c, t)
	quarter := len(amp) >> 2
	for k := 0; k < quarter; k++ {
		i := base2(k, lo, hi) | bitC
		j := i | bitT
		amp[i], amp[j] = amp[j], amp[i]
	}
}

// apply2 applies the 4×4 matrix m to qubits (a, b); the row/column index
// is bitA*2 + bitB.
func (s *State) apply2(m [16]complex128, a, b int) {
	cApplies.Add(1)
	amp, bitA, bitB := s.amp, 1<<uint(a), 1<<uint(b)
	lo, hi := order2(a, b)
	quarter := len(amp) >> 2
	for k := 0; k < quarter; k++ {
		i00 := base2(k, lo, hi)
		i01 := i00 | bitB
		i10 := i00 | bitA
		i11 := i10 | bitB
		v0, v1, v2, v3 := amp[i00], amp[i01], amp[i10], amp[i11]
		amp[i00] = m[0]*v0 + m[1]*v1 + m[2]*v2 + m[3]*v3
		amp[i01] = m[4]*v0 + m[5]*v1 + m[6]*v2 + m[7]*v3
		amp[i10] = m[8]*v0 + m[9]*v1 + m[10]*v2 + m[11]*v3
		amp[i11] = m[12]*v0 + m[13]*v1 + m[14]*v2 + m[15]*v3
	}
}

func mat1(name string, params []float64) ([4]complex128, error) {
	i := complex(0, 1)
	inv2 := complex(1/math.Sqrt2, 0)
	switch name {
	case "id":
		return [4]complex128{1, 0, 0, 1}, nil
	case "x":
		return [4]complex128{0, 1, 1, 0}, nil
	case "y":
		return [4]complex128{0, -i, i, 0}, nil
	case "z":
		return [4]complex128{1, 0, 0, -1}, nil
	case "h":
		return [4]complex128{inv2, inv2, inv2, -inv2}, nil
	case "s":
		return [4]complex128{1, 0, 0, i}, nil
	case "sdg":
		return [4]complex128{1, 0, 0, -i}, nil
	case "t":
		return [4]complex128{1, 0, 0, cmplx.Exp(i * math.Pi / 4)}, nil
	case "tdg":
		return [4]complex128{1, 0, 0, cmplx.Exp(-i * math.Pi / 4)}, nil
	case "sx":
		return [4]complex128{
			(1 + i) / 2, (1 - i) / 2,
			(1 - i) / 2, (1 + i) / 2,
		}, nil
	case "sxdg":
		return [4]complex128{
			(1 - i) / 2, (1 + i) / 2,
			(1 + i) / 2, (1 - i) / 2,
		}, nil
	case "rx":
		th := params[0] / 2
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return [4]complex128{c, -i * s, -i * s, c}, nil
	case "ry":
		th := params[0] / 2
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return [4]complex128{c, -s, s, c}, nil
	case "rz":
		th := params[0] / 2
		return [4]complex128{cmplx.Exp(-i * complex(th, 0)), 0, 0, cmplx.Exp(i * complex(th, 0))}, nil
	case "u1", "p":
		return [4]complex128{1, 0, 0, cmplx.Exp(i * complex(params[0], 0))}, nil
	case "u2":
		phi, lam := params[0], params[1]
		return u3mat(math.Pi/2, phi, lam), nil
	case "u3", "u":
		return u3mat(params[0], params[1], params[2]), nil
	}
	return [4]complex128{}, fmt.Errorf("sim: no matrix for 1q gate %q", name)
}

func u3mat(theta, phi, lam float64) [4]complex128 {
	i := complex(0, 1)
	c, s := complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
	return [4]complex128{
		c, -cmplx.Exp(i*complex(lam, 0)) * s,
		cmplx.Exp(i*complex(phi, 0)) * s, cmplx.Exp(i*complex(phi+lam, 0)) * c,
	}
}

// controlled builds the 4×4 controlled version of a 2×2 matrix (control is
// the first qubit / high bit).
func controlled(u [4]complex128) [16]complex128 {
	return [16]complex128{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, u[0], u[1],
		0, 0, u[2], u[3],
	}
}

func mat2(name string, params []float64) ([16]complex128, error) {
	i := complex(0, 1)
	switch name {
	case "cx": // Apply runs applyCX instead; this is its definition.
		return controlled([4]complex128{0, 1, 1, 0}), nil
	case "cz":
		return controlled([4]complex128{1, 0, 0, -1}), nil
	case "cy":
		return controlled([4]complex128{0, -i, i, 0}), nil
	case "ch":
		inv2 := complex(1/math.Sqrt2, 0)
		return controlled([4]complex128{inv2, inv2, inv2, -inv2}), nil
	case "swap":
		return [16]complex128{
			1, 0, 0, 0,
			0, 0, 1, 0,
			0, 1, 0, 0,
			0, 0, 0, 1,
		}, nil
	case "cp", "cu1":
		return controlled([4]complex128{1, 0, 0, cmplx.Exp(i * complex(params[0], 0))}), nil
	case "crx", "cry", "crz":
		u, err := mat1(name[1:], params)
		if err != nil {
			return [16]complex128{}, err
		}
		return controlled(u), nil
	case "rzz":
		th := complex(params[0]/2, 0)
		return [16]complex128{
			cmplx.Exp(-i * th), 0, 0, 0,
			0, cmplx.Exp(i * th), 0, 0,
			0, 0, cmplx.Exp(i * th), 0,
			0, 0, 0, cmplx.Exp(-i * th),
		}, nil
	case "rxx", "ms":
		th := params[0] / 2
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return [16]complex128{
			c, 0, 0, -i * s,
			0, c, -i * s, 0,
			0, -i * s, c, 0,
			-i * s, 0, 0, c,
		}, nil
	case "ryy":
		th := params[0] / 2
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return [16]complex128{
			c, 0, 0, i * s,
			0, c, -i * s, 0,
			0, -i * s, c, 0,
			i * s, 0, 0, c,
		}, nil
	}
	return [16]complex128{}, fmt.Errorf("sim: no matrix for 2q gate %q", name)
}

// Apply applies one gate. Barriers are ignored; measure/reset are
// rejected (the verifier works on unitary prefixes).
func (s *State) Apply(g circuit.Gate) error {
	switch {
	case g.Cond != nil:
		// Whether the gate fires depends on a run-time measurement
		// outcome; there is no single unitary to apply.
		return fmt.Errorf("sim: classically-controlled gate %s has no unitary", g)
	case g.Name == "barrier":
		return nil
	case g.Name == "measure" || g.Name == "reset":
		return fmt.Errorf("sim: non-unitary gate %q in state-vector run", g.Name)
	case len(g.Qubits) == 1:
		m, err := mat1(g.Name, g.Params)
		if err != nil {
			return err
		}
		s.apply1(m, g.Qubits[0])
		return nil
	case g.Name == "cx" && len(g.Qubits) == 2:
		s.applyCX(g.Qubits[0], g.Qubits[1])
		return nil
	case len(g.Qubits) == 2:
		m, err := mat2(g.Name, g.Params)
		if err != nil {
			return err
		}
		s.apply2(m, g.Qubits[0], g.Qubits[1])
		return nil
	case g.Name == "ccx":
		s.applyCCX(g.Qubits[0], g.Qubits[1], g.Qubits[2])
		return nil
	case g.Name == "cswap":
		s.applyCSwap(g.Qubits[0], g.Qubits[1], g.Qubits[2])
		return nil
	}
	return fmt.Errorf("sim: unsupported gate %s", g)
}

// applyCCX flips the target bit on amplitudes with both controls set.
func (s *State) applyCCX(c1, c2, t int) {
	cApplies.Add(1)
	b1, b2, bt := 1<<uint(c1), 1<<uint(c2), 1<<uint(t)
	for i := range s.amp {
		if i&b1 != 0 && i&b2 != 0 && i&bt == 0 {
			j := i | bt
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// applyCSwap exchanges bits a and b on amplitudes with the control set.
func (s *State) applyCSwap(c, a, b int) {
	cApplies.Add(1)
	bc, ba, bb := 1<<uint(c), 1<<uint(a), 1<<uint(b)
	for i := range s.amp {
		if i&bc != 0 && i&ba != 0 && i&bb == 0 {
			j := i&^ba | bb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// ApplyCircuit runs every gate of c.
func (s *State) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits != s.n {
		return fmt.Errorf("sim: circuit has %d qubits, state has %d", c.NumQubits, s.n)
	}
	for _, g := range c.Gates {
		if err := s.Apply(g); err != nil {
			return err
		}
	}
	return nil
}

// Overlap returns |<a|b>|², 1 when the states agree up to global phase.
func Overlap(a, b *State) float64 {
	if a.n != b.n {
		return 0
	}
	sum := complex(0, 0)
	for i := range a.amp {
		sum += cmplx.Conj(a.amp[i]) * b.amp[i]
	}
	return real(sum)*real(sum) + imag(sum)*imag(sum)
}

// RandomProductState prepares ⨂ u3(θ,φ,λ)|0> with angles drawn from rng —
// a fixed-seed “witness” input that distinguishes almost all unitaries.
func RandomProductState(n int, rng *rand.Rand) (*State, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	for q := 0; q < n; q++ {
		g := circuit.New("u3", []int{q},
			rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi)
		if err := s.Apply(g); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Probability returns |amp[basis]|², the chance of measuring the given
// computational basis state.
func (s *State) Probability(basis int) float64 {
	a := s.amp[basis]
	return real(a)*real(a) + imag(a)*imag(a)
}
