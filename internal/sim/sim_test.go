package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/mapping"
	"ssync/internal/noise"
	"ssync/internal/schedule"
	"ssync/internal/workloads"
)

func TestBellState(t *testing.T) {
	s, err := NewState(2)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.NewCircuit(2)
	c.H(0).CX(0, 1)
	if err := s.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	inv2 := 1 / math.Sqrt2
	if a := s.Amplitude(0); math.Abs(real(a)-inv2) > 1e-12 {
		t.Errorf("amp[00] = %v", a)
	}
	if a := s.Amplitude(3); math.Abs(real(a)-inv2) > 1e-12 {
		t.Errorf("amp[11] = %v", a)
	}
	if a := s.Amplitude(1); real(a) != 0 || imag(a) != 0 {
		t.Errorf("amp[01] = %v, want 0", a)
	}
}

func TestGateInverses(t *testing.T) {
	// Each pair applied in sequence must be the identity on a random state.
	pairs := [][]circuit.Gate{
		{circuit.New("h", []int{0}), circuit.New("h", []int{0})},
		{circuit.New("x", []int{0}), circuit.New("x", []int{0})},
		{circuit.New("s", []int{0}), circuit.New("sdg", []int{0})},
		{circuit.New("t", []int{0}), circuit.New("tdg", []int{0})},
		{circuit.New("sx", []int{0}), circuit.New("sxdg", []int{0})},
		{circuit.New("rx", []int{0}, 0.7), circuit.New("rx", []int{0}, -0.7)},
		{circuit.New("cx", []int{0, 1}), circuit.New("cx", []int{0, 1})},
		{circuit.New("swap", []int{0, 1}), circuit.New("swap", []int{0, 1})},
		{circuit.New("rzz", []int{0, 1}, 0.3), circuit.New("rzz", []int{0, 1}, -0.3)},
		{circuit.New("rxx", []int{0, 1}, 0.3), circuit.New("rxx", []int{0, 1}, -0.3)},
		{circuit.New("ryy", []int{0, 1}, 0.3), circuit.New("ryy", []int{0, 1}, -0.3)},
	}
	rng := rand.New(rand.NewSource(7))
	for _, pair := range pairs {
		ref, err := RandomProductState(2, rng)
		if err != nil {
			t.Fatal(err)
		}
		got := ref.Clone()
		for _, g := range pair {
			if err := got.Apply(g); err != nil {
				t.Fatalf("%s: %v", g, err)
			}
		}
		if ov := Overlap(ref, got); ov < 1-1e-10 {
			t.Errorf("%s then %s is not identity (overlap %g)", pair[0], pair[1], ov)
		}
	}
}

func TestSwapEqualsThreeCX(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref, _ := RandomProductState(2, rng)
	viaSwap := ref.Clone()
	viaCX := ref.Clone()
	viaSwap.Apply(circuit.New("swap", []int{0, 1}))
	for _, g := range []circuit.Gate{
		circuit.New("cx", []int{0, 1}),
		circuit.New("cx", []int{1, 0}),
		circuit.New("cx", []int{0, 1}),
	} {
		viaCX.Apply(g)
	}
	if ov := Overlap(viaSwap, viaCX); ov < 1-1e-10 {
		t.Errorf("swap != cx·cx·cx (overlap %g)", ov)
	}
}

// Property: DecomposeToBasis preserves semantics for every composite gate.
func TestDecompositionsPreserveSemantics(t *testing.T) {
	composites := []circuit.Gate{
		circuit.New("cz", []int{0, 1}),
		circuit.New("cy", []int{0, 1}),
		circuit.New("ch", []int{0, 1}),
		circuit.New("cp", []int{0, 1}, 0.9),
		circuit.New("cu1", []int{0, 1}, -1.3),
		circuit.New("crz", []int{0, 1}, 0.4),
		circuit.New("crx", []int{0, 1}, 1.1),
		circuit.New("cry", []int{0, 1}, -0.8),
		circuit.New("rzz", []int{0, 1}, 0.5),
		circuit.New("rxx", []int{0, 1}, 0.5),
		circuit.New("ryy", []int{0, 1}, 0.5),
		circuit.New("ms", []int{0, 1}, 0.5),
		circuit.New("ccx", []int{0, 1, 2}),
		circuit.New("cswap", []int{0, 1, 2}),
	}
	rng := rand.New(rand.NewSource(23))
	for _, g := range composites {
		n := 3
		src := circuit.NewCircuit(n)
		if err := src.Append(g); err != nil {
			t.Fatal(err)
		}
		ref, _ := RandomProductState(n, rng)
		direct := ref.Clone()
		if err := direct.Apply(g); err != nil {
			t.Fatalf("direct apply %s: %v", g, err)
		}
		dec := ref.Clone()
		if err := dec.ApplyCircuit(src.DecomposeToBasis()); err != nil {
			t.Fatalf("decomposed apply %s: %v", g, err)
		}
		if ov := Overlap(direct, dec); ov < 1-1e-9 {
			t.Errorf("%s decomposition diverges (overlap %.12f)", g, ov)
		}
	}
}

func TestStateSizeLimits(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Error("NewState(0) accepted")
	}
	if _, err := NewState(MaxStateQubits + 1); err == nil {
		t.Error("oversized state accepted")
	}
}

func TestRunTimingBasics(t *testing.T) {
	topo := device.Linear(2, 4)
	s := schedule.New(2)
	s.Append(schedule.Op{Kind: schedule.Gate1Q, Name: "h", Qubits: []int{0}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 0, ChainLen: 2})
	opt := DefaultOptions()
	m := Run(s, topo, opt)
	wantTime := opt.Params.OneQubitTime + opt.Params.TwoQubitTime(2, 0)
	if math.Abs(m.ExecutionTime-wantTime) > 1e-9 {
		t.Errorf("ExecutionTime = %g, want %g", m.ExecutionTime, wantTime)
	}
	if m.SuccessRate <= 0 || m.SuccessRate >= 1 {
		t.Errorf("SuccessRate = %g, want in (0,1)", m.SuccessRate)
	}
}

func TestRunParallelTraps(t *testing.T) {
	// Gates in different traps overlap in time.
	topo := device.Linear(2, 4)
	s := schedule.New(4)
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{2, 3}, Trap: 1, ChainLen: 2})
	opt := DefaultOptions()
	m := Run(s, topo, opt)
	if want := opt.Params.TwoQubitTime(2, 0); math.Abs(m.ExecutionTime-want) > 1e-9 {
		t.Errorf("parallel gates: time = %g, want %g", m.ExecutionTime, want)
	}
}

func TestRunShuttleTimeAndHeating(t *testing.T) {
	topo := device.Grid(1, 2, 4) // one junction on the segment
	s := schedule.New(2)
	s.Append(schedule.Op{Kind: schedule.Split, Qubits: []int{0}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Move, Qubits: []int{0}, Segment: 0, Hops: 1})
	s.Append(schedule.Op{Kind: schedule.JunctionCross, Qubits: []int{0}, Segment: 0, Junctions: 1})
	s.Append(schedule.Op{Kind: schedule.Merge, Qubits: []int{0}, Trap: 1, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 1, ChainLen: 2})
	opt := DefaultOptions()
	p := opt.Params
	m := Run(s, topo, opt)
	wantTransport := p.SplitTime + p.MoveTime + p.JunctionTime(1) + p.MergeTime
	if want := wantTransport + p.TwoQubitTime(2, 0); math.Abs(m.ExecutionTime-want) > 1e-9 {
		t.Errorf("time = %g, want %g", m.ExecutionTime, want)
	}
	// Split heats the source chain (k1/2); merge heats the destination
	// chain (k1/2) plus the shuttled-segment quanta k2. Max is per trap.
	if want := p.K1/2 + p.K2; math.Abs(m.MaxNbar-want) > 1e-12 {
		t.Errorf("MaxNbar = %g, want %g (k1/2 merge + k2 shuttle)", m.MaxNbar, want)
	}
	// Success must be lower than the same gate without transport heat.
	noShuttle := schedule.New(2)
	noShuttle.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 1, ChainLen: 2})
	m2 := Run(noShuttle, topo, opt)
	if m.SuccessRate >= m2.SuccessRate {
		t.Errorf("heated success %g >= unheated %g", m.SuccessRate, m2.SuccessRate)
	}
}

func TestPerfectModes(t *testing.T) {
	topo := device.Linear(2, 4)
	s := schedule.New(2)
	s.Append(schedule.Op{Kind: schedule.SwapGate, Qubits: []int{0, 1}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Split, Qubits: []int{0}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Move, Qubits: []int{0}, Segment: 0, Hops: 1})
	s.Append(schedule.Op{Kind: schedule.Merge, Qubits: []int{0}, Trap: 1, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 1, ChainLen: 2})

	base := Run(s, topo, DefaultOptions())
	ps := DefaultOptions()
	ps.PerfectShuttle = true
	shuttle := Run(s, topo, ps)
	pw := DefaultOptions()
	pw.PerfectSwap = true
	swap := Run(s, topo, pw)
	both := DefaultOptions()
	both.PerfectShuttle, both.PerfectSwap = true, true
	ideal := Run(s, topo, both)

	if !(ideal.SuccessRate >= shuttle.SuccessRate && shuttle.SuccessRate >= base.SuccessRate) {
		t.Errorf("ordering violated: ideal=%g shuttle=%g base=%g",
			ideal.SuccessRate, shuttle.SuccessRate, base.SuccessRate)
	}
	if !(ideal.SuccessRate >= swap.SuccessRate && swap.SuccessRate >= base.SuccessRate) {
		t.Errorf("ordering violated: ideal=%g swap=%g base=%g",
			ideal.SuccessRate, swap.SuccessRate, base.SuccessRate)
	}
	if shuttle.ExecutionTime >= base.ExecutionTime {
		t.Errorf("perfect shuttle not faster: %g >= %g", shuttle.ExecutionTime, base.ExecutionTime)
	}
}

func TestRunGateModels(t *testing.T) {
	topo := device.Linear(1, 12)
	s := schedule.New(2)
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 0, ChainLen: 10, IonDist: 4})
	for _, model := range []noise.GateModel{noise.FM, noise.PM, noise.AM1, noise.AM2} {
		opt := DefaultOptions()
		opt.Params.Model = model
		m := Run(s, topo, opt)
		if want := model.TwoQubitTime(10, 4); math.Abs(m.ExecutionTime-want) > 1e-9 {
			t.Errorf("%s: time = %g, want %g", model, m.ExecutionTime, want)
		}
	}
}

// The flagship integration property: for random circuits on random
// topologies, the S-SYNC-compiled schedule is semantically identical to
// the source circuit under state-vector simulation.
func TestCompiledScheduleSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topos := []*device.Topology{
			device.Linear(2, 4), device.Grid(2, 2, 3), device.Star(4, 3),
		}
		topo := topos[r.Intn(len(topos))]
		nq := 3 + r.Intn(5)
		if nq > topo.TotalCapacity()-2 {
			nq = topo.TotalCapacity() - 2
		}
		c := circuit.NewCircuit(nq)
		oneQ := []string{"h", "t", "s", "x"}
		for i := 0; i < 4+r.Intn(25); i++ {
			if r.Intn(3) == 0 {
				c.Append(circuit.New(oneQ[r.Intn(len(oneQ))], []int{r.Intn(nq)}))
			} else {
				a := r.Intn(nq)
				b := r.Intn(nq - 1)
				if b >= a {
					b++
				}
				c.CX(a, b)
			}
		}
		cfg := core.DefaultConfig()
		strategies := []mapping.Strategy{mapping.EvenDivided, mapping.Gathering, mapping.STA}
		cfg.Mapping.Strategy = strategies[r.Intn(len(strategies))]
		res, err := core.Compile(cfg, c, topo)
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		if err := VerifySchedule(c, res.Schedule, seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVerifyScheduleDetectsCorruption(t *testing.T) {
	topo := device.Linear(2, 4)
	c := circuit.NewCircuit(3)
	c.H(0).CX(0, 1).CX(1, 2)
	res, err := core.Compile(core.DefaultConfig(), c, topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(c, res.Schedule, 1); err != nil {
		t.Fatalf("clean schedule rejected: %v", err)
	}
	// Corrupt: flip a gate's qubits.
	for i, op := range res.Schedule.Ops {
		if op.Kind == schedule.Gate2Q {
			res.Schedule.Ops[i].Qubits = []int{op.Qubits[1], op.Qubits[0]}
			break
		}
	}
	if err := VerifySchedule(c, res.Schedule, 1); err == nil {
		t.Error("corrupted schedule passed verification")
	}
}

func TestEndToEndQFTMetrics(t *testing.T) {
	topo := device.Grid(2, 2, 6)
	c := workloads.QFT(12)
	res, err := core.Compile(core.DefaultConfig(), c, topo)
	if err != nil {
		t.Fatal(err)
	}
	m := Run(res.Schedule, topo, DefaultOptions())
	if m.ExecutionTime <= 0 {
		t.Error("non-positive execution time")
	}
	if m.SuccessRate <= 0 || m.SuccessRate >= 1 {
		t.Errorf("success rate = %g", m.SuccessRate)
	}
	if m.Counts.TwoQubit != c.TwoQubitCount() {
		t.Errorf("2Q count %d, want %d", m.Counts.TwoQubit, c.TwoQubitCount())
	}
}

func TestT2IdleDephasing(t *testing.T) {
	topo := device.Linear(2, 4)
	s := schedule.New(2)
	// q0 works for a while before the joint gate; q1 idles.
	s.Append(schedule.Op{Kind: schedule.Gate1Q, Name: "h", Qubits: []int{0}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 0, ChainLen: 2})

	base := Run(s, topo, DefaultOptions())

	withT2 := DefaultOptions()
	withT2.Params.T2 = 100 // aggressively short coherence
	decohered := Run(s, topo, withT2)
	if decohered.SuccessRate >= base.SuccessRate {
		t.Errorf("T2 dephasing did not reduce success: %g >= %g",
			decohered.SuccessRate, base.SuccessRate)
	}
	// Expected extra factor: exp(-idle/T2) with idle = 1Q gate time.
	want := base.SuccessRate * math.Exp(-withT2.Params.OneQubitTime/withT2.Params.T2)
	if math.Abs(decohered.SuccessRate-want) > 1e-12 {
		t.Errorf("T2 factor: got %g, want %g", decohered.SuccessRate, want)
	}
	// T2 = 0 (the default) must be a no-op.
	if DefaultOptions().Params.T2 != 0 {
		t.Error("default T2 should be 0 (disabled), matching the paper")
	}
}

// BenchmarkSimRun scores the largest schedule a fresh compile produces
// on the paper grid: Heisenberg_48 on G-2x3 at paper capacity (about
// 40k ops), compiled once by S-SYNC.
func BenchmarkSimRun(b *testing.B) {
	topo, err := device.ByName("G-2x3", device.PaperCapacity("G-2x3"))
	if err != nil {
		b.Fatal(err)
	}
	c, err := workloads.Build("Heisenberg_48")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Compile(core.DefaultConfig(), c, topo)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	for b.Loop() {
		Run(res.Schedule, topo, opt)
	}
}
