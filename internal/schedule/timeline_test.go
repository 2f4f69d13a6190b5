package schedule_test

import (
	"math"
	"strings"
	"testing"

	"ssync/internal/device"
	"ssync/internal/noise"
	"ssync/internal/schedule"
	"ssync/internal/sim"
)

// timeline lays s out under the simulator's clock with timing p.
func timeline(s *schedule.Schedule, p noise.Params) *schedule.Timeline {
	return sim.Timeline(s, sim.Options{Params: p})
}

func timedSample() *schedule.Schedule {
	s := schedule.New(4)
	s.Append(schedule.Op{Kind: schedule.Gate1Q, Name: "h", Qubits: []int{0}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{0, 1}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Gate2Q, Name: "cx", Qubits: []int{2, 3}, Trap: 1, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Split, Qubits: []int{1}, Trap: 0, ChainLen: 2})
	s.Append(schedule.Op{Kind: schedule.Move, Qubits: []int{1}, Segment: 0, Hops: 2})
	s.Append(schedule.Op{Kind: schedule.Merge, Qubits: []int{1}, Trap: 1, ChainLen: 3})
	return s
}

func TestBuildTimelineClocks(t *testing.T) {
	p := noise.DefaultParams()
	tl := timeline(timedSample(), p)
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := p.TwoQubitTime(2, 0)
	// q0: h then cx.
	if got, want := tl.Lanes[0][1].End, p.OneQubitTime+g2; math.Abs(got-want) > 1e-9 {
		t.Errorf("q0 cx end = %g, want %g", got, want)
	}
	// q2/q3 cx runs in parallel with q0's ops, starting at 0.
	if tl.Lanes[2][0].Start != 0 {
		t.Errorf("parallel cx start = %g, want 0", tl.Lanes[2][0].Start)
	}
	// q1 transport: starts after its cx, split 80 + move 2*5 + merge 80.
	lane1 := tl.Lanes[1]
	last := lane1[len(lane1)-1]
	wantEnd := p.OneQubitTime + g2 + p.SplitTime + 2*p.MoveTime + p.MergeTime
	if math.Abs(last.End-wantEnd) > 1e-9 {
		t.Errorf("q1 transport end = %g, want %g", last.End, wantEnd)
	}
	if math.Abs(tl.Makespan-wantEnd) > 1e-9 {
		t.Errorf("makespan = %g, want %g", tl.Makespan, wantEnd)
	}
}

func TestTimelineStats(t *testing.T) {
	p := noise.DefaultParams()
	tl := timeline(timedSample(), p)
	st := tl.Stats()
	if st.Makespan != tl.Makespan {
		t.Error("stats makespan mismatch")
	}
	if st.TransportTime != p.SplitTime+2*p.MoveTime+p.MergeTime {
		t.Errorf("transport time = %g", st.TransportTime)
	}
	g2 := p.TwoQubitTime(2, 0)
	// Gate time counts per-qubit: h once, each cx twice (two lanes).
	if want := p.OneQubitTime + 4*g2; math.Abs(st.GateTime-want) > 1e-9 {
		t.Errorf("gate time = %g, want %g", st.GateTime, want)
	}
	// The two cx gates overlap: at least 4 qubits busy at t=0+.
	if st.MaxParallel < 4 {
		t.Errorf("max parallel = %d, want >= 4", st.MaxParallel)
	}
	if st.AvgParallel <= 0 || st.AvgParallel > 4 {
		t.Errorf("avg parallel = %g", st.AvgParallel)
	}
	if st.CriticalQubit != 1 {
		t.Errorf("critical qubit = %d, want 1 (transport lane)", st.CriticalQubit)
	}
}

func TestTimelineMatchesSimulatorMakespan(t *testing.T) {
	// The timeline and the simulator walk one clock, so the makespan is
	// the simulator's execution time exactly, and rebuilding it gives the
	// same value.
	p := noise.DefaultParams()
	a := timeline(timedSample(), p).Makespan
	b := timeline(timedSample(), p).Makespan
	if a != b {
		t.Errorf("timeline not deterministic: %g vs %g", a, b)
	}
	m := sim.Run(timedSample(), device.Linear(2, 4), sim.Options{Params: p})
	if a != m.ExecutionTime {
		t.Errorf("timeline makespan %g != simulator %g", a, m.ExecutionTime)
	}
}

func TestGanttRendering(t *testing.T) {
	tl := timeline(timedSample(), noise.DefaultParams())
	out := tl.Gantt(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // 4 lanes + axis
		t.Fatalf("gantt lines = %d, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Error("gantt missing gate marks")
	}
	if !strings.Contains(out, "~") {
		t.Error("gantt missing transport marks")
	}
	// Every lane row has the same width.
	w := len(lines[0])
	for _, l := range lines[:4] {
		if len(l) != w {
			t.Errorf("ragged gantt row: %q", l)
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	tl := timeline(schedule.New(2), noise.DefaultParams())
	if out := tl.Gantt(20); out != "" {
		t.Errorf("empty schedule rendered %q", out)
	}
}

func TestTimelineBarrierSync(t *testing.T) {
	p := noise.DefaultParams()
	s := schedule.New(2)
	s.Append(schedule.Op{Kind: schedule.Gate1Q, Name: "h", Qubits: []int{0}, Trap: 0, ChainLen: 1})
	s.Append(schedule.Op{Kind: schedule.Barrier, Qubits: []int{0, 1}})
	s.Append(schedule.Op{Kind: schedule.Gate1Q, Name: "h", Qubits: []int{1}, Trap: 0, ChainLen: 1})
	tl := timeline(s, p)
	// q1's h must start after q0's h (barrier synchronised).
	if got := tl.Lanes[1][1].Start; math.Abs(got-p.OneQubitTime) > 1e-9 {
		t.Errorf("post-barrier start = %g, want %g", got, p.OneQubitTime)
	}
}
