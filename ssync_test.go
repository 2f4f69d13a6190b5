package ssync

import (
	"context"
	"strings"
	"testing"
)

// Tests of the public API surface: everything a downstream user touches.

// compile runs one request through the package-level Do, failing the
// test on a compile error.
func compile(t *testing.T, req CompileRequest) *CompileResult {
	t.Helper()
	resp := Do(context.Background(), req)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	return resp.Result
}

// benchmark builds a Table 2 benchmark by name, failing the test on an
// unknown name.
func benchmark(t testing.TB, name string) *Circuit {
	t.Helper()
	c, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// topology builds a named topology, failing the test on an unknown name.
func topology(t testing.TB, name string, capacity int) *Topology {
	t.Helper()
	topo, err := TopologyByName(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPublicEndToEnd(t *testing.T) {
	c := QFT(10)
	topo, err := TopologyByName("G-2x2", 4)
	if err != nil {
		t.Fatal(err)
	}
	res := compile(t, CompileRequest{Circuit: c, Topo: topo})
	m := Simulate(res.Schedule, topo, DefaultSimOptions())
	if m.SuccessRate <= 0 || m.SuccessRate >= 1 {
		t.Errorf("success rate = %g", m.SuccessRate)
	}
	if err := VerifySchedule(c, res.Schedule, 7); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBuilders(t *testing.T) {
	c := &Circuit{NumQubits: 3}
	c.H(0).CX(0, 1)
	if err := c.Append(Gate{Name: "rz", Qubits: []int{2}, Params: []float64{0.5}}); err != nil {
		t.Fatal(err)
	}
	if c.TwoQubitCount() != 1 {
		t.Errorf("2Q count = %d", c.TwoQubitCount())
	}
}

func TestPublicWorkloads(t *testing.T) {
	cases := map[string]*Circuit{
		"adder":      Adder(4),
		"bv":         benchmark(t, "BV_8"),
		"qaoa":       QAOA(8, 2),
		"alt":        benchmark(t, "ALT_8"),
		"qft":        QFT(8),
		"heisenberg": Heisenberg(6, 2),
	}
	for name, c := range cases {
		if c.TwoQubitCount() == 0 {
			t.Errorf("%s: no 2Q gates", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Benchmark("QFT_24"); err != nil {
		t.Error(err)
	}
}

func TestPublicDevices(t *testing.T) {
	if topology(t, "L-3", 5).TotalCapacity() != 15 {
		t.Error("L-3 capacity wrong")
	}
	if GridDevice(2, 3, 4).NumTraps() != 6 {
		t.Error("GridDevice traps wrong")
	}
	if topology(t, "S-4", 4).NumTraps() != 4 {
		t.Error("S-4 traps wrong")
	}
	traps := []Trap{{ID: 0, Capacity: 3}, {ID: 1, Capacity: 3}}
	segs := []Segment{{A: 0, B: 1, EndA: 1, EndB: 0}}
	custom, err := NewTopology("pair", traps, segs)
	if err != nil {
		t.Fatal(err)
	}
	if custom.Name != "pair" {
		t.Error("custom topology name lost")
	}
}

func TestPublicBaselines(t *testing.T) {
	c := QFT(8)
	topo := topology(t, "L-2", 6)
	for _, name := range []string{MuraliCompilerName, DaiCompilerName} {
		res := compile(t, CompileRequest{Circuit: c, Topo: topo, Compiler: name})
		if res.Counts.TwoQubit != c.TwoQubitCount() {
			t.Errorf("%s executed %d/%d gates", name, res.Counts.TwoQubit, c.TwoQubitCount())
		}
	}
}

func TestPublicQASM(t *testing.T) {
	src := `OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; h q[0]; cx q[0],q[1];`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Fatalf("gates = %d", len(c.Gates))
	}
	if out := WriteQASM(c); !strings.Contains(out, "cx q[0],q[1];") {
		t.Errorf("WriteQASM output:\n%s", out)
	}
}

func TestPublicExperiments(t *testing.T) {
	out, err := RunExperiment("table2", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "QFT_64") {
		t.Errorf("table2 output:\n%s", out)
	}
}

func TestPublicGateModels(t *testing.T) {
	c := QFT(8)
	topo := topology(t, "L-2", 6)
	res := compile(t, CompileRequest{Circuit: c, Topo: topo})
	prev := -1.0
	for _, model := range []GateModel{FMGate, PMGate, AM1Gate, AM2Gate} {
		opt := DefaultSimOptions()
		opt.Params.Model = model
		m := Simulate(res.Schedule, topo, opt)
		if m.SuccessRate <= 0 {
			t.Errorf("%v: success %g", model, m.SuccessRate)
		}
		if m.SuccessRate == prev {
			t.Logf("%v: identical to previous model (possible but unusual)", model)
		}
		prev = m.SuccessRate
	}
}

func TestPublicExtensions(t *testing.T) {
	c := QAOA(10, 2)
	topo := RacetrackDevice(3, 5)
	if topo.NumTraps() != 3 {
		t.Fatal("racetrack wrapper broken")
	}

	res := compile(t, CompileRequest{Circuit: c, Topo: topo, Compiler: SSyncAnnealedCompilerName})
	ions := 0
	for tr := 0; tr < topo.NumTraps(); tr++ {
		ions += res.Initial.IonCount(tr)
	}
	if ions != c.NumQubits {
		t.Errorf("annealed placement holds %d ions, want %d", ions, c.NumQubits)
	}

	tl := BuildTimeline(res.Schedule, DefaultNoiseParams())
	if tl.Makespan <= 0 {
		t.Error("timeline makespan not positive")
	}
	st := tl.Stats()
	if st.MaxParallel < 1 || st.BusyTime <= 0 {
		t.Errorf("timeline stats: %+v", st)
	}
	if g := tl.Gantt(40); !strings.Contains(g, "#") {
		t.Error("gantt missing gate marks")
	}

	hw, ionOf, err := HardwareCircuit(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if hw.NumQubits != c.NumQubits || len(ionOf) != c.NumQubits {
		t.Error("hardware circuit shape wrong")
	}
	prog, err := TrapProgram(res.Schedule, topo.NumTraps())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != topo.NumTraps() {
		t.Error("trap program shape wrong")
	}
}

func TestPublicOptimize(t *testing.T) {
	c := &Circuit{NumQubits: 2}
	c.H(0).H(0).CX(0, 1)
	o := Optimize(c)
	if len(o.Gates) != 1 {
		t.Errorf("Optimize left %d gates, want 1", len(o.Gates))
	}
}

func TestPublicCommutationAndHeatFlags(t *testing.T) {
	c := QFT(10)
	topo := GridDevice(2, 2, 4)
	for _, mut := range []func(*CompileConfig){
		func(cfg *CompileConfig) { cfg.CommutationAware = true },
		func(cfg *CompileConfig) { cfg.HeatAware = true },
	} {
		cfg := DefaultCompileConfig()
		mut(&cfg)
		res := compile(t, CompileRequest{Circuit: c, Topo: topo, Config: &cfg})
		if err := VerifySchedule(c, res.Schedule, 3); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicCSVExperiment(t *testing.T) {
	out, err := RunExperimentCSV("table2", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "application,") {
		t.Errorf("CSV header missing: %q", out[:40])
	}
}

func TestPublicT2(t *testing.T) {
	c := benchmark(t, "BV_8")
	topo := topology(t, "L-2", 6)
	res := compile(t, CompileRequest{Circuit: c, Topo: topo})
	base := Simulate(res.Schedule, topo, DefaultSimOptions())
	opt := DefaultSimOptions()
	opt.Params.T2 = 50
	dec := Simulate(res.Schedule, topo, opt)
	if dec.SuccessRate > base.SuccessRate {
		t.Errorf("T2 dephasing raised success: %g > %g", dec.SuccessRate, base.SuccessRate)
	}
}
