package sim

import (
	"math"

	"ssync/internal/device"
	"ssync/internal/noise"
	"ssync/internal/schedule"
)

// Options configures one simulated execution.
type Options struct {
	Params noise.Params
	// PerfectShuttle zeroes all transport time and heating — the "perfect
	// shuttle" idealisation of the optimality analysis (Fig. 16).
	PerfectShuttle bool
	// PerfectSwap drops every inserted SWAP gate — ions behave as if they
	// were always at trap edges ("perfect SWAP", Fig. 16).
	PerfectSwap bool
}

// DefaultOptions uses the paper's simulation parameters.
func DefaultOptions() Options { return Options{Params: noise.DefaultParams()} }

// Metrics is the outcome of simulating one schedule.
type Metrics struct {
	// ExecutionTime is the makespan in µs (max per-qubit completion).
	ExecutionTime float64
	// SuccessRate is Π F over all ops per Eq. 4 (exp of LogSuccess).
	SuccessRate float64
	// LogSuccess is the natural log of the success rate; robust for the
	// deep-circuit cases where the product underflows.
	LogSuccess float64
	// Counts echoes the schedule's op tallies.
	Counts schedule.Counts
	// MaxNbar is the highest per-trap phonon occupation reached from
	// transport ops (background heating excluded).
	MaxNbar float64
}

// The clock. Run and Timeline walk a schedule under one timing model:
// each op runs for the time its kind takes under opt.Params (opTime),
// starts once all its qubits are free (clock.start), and holds them
// until it ends. Ops that opt drops take no time and hold nothing.

// opTime returns how long op runs under opt, or ok=false for an op opt
// drops: transport under PerfectShuttle, inserted SWAPs under
// PerfectSwap, and kinds the model does not time.
func opTime(op *schedule.Op, opt *Options) (dur float64, ok bool) {
	p := &opt.Params
	switch op.Kind {
	case schedule.Gate1Q:
		return p.OneQubitTime, true
	case schedule.Gate2Q:
		return p.TwoQubitTime(op.ChainLen, op.IonDist), true
	case schedule.SwapGate:
		return p.SwapTime(op.ChainLen, op.IonDist), !opt.PerfectSwap
	case schedule.Shift:
		return p.ShiftTime, !opt.PerfectShuttle
	case schedule.Split:
		return p.SplitTime, !opt.PerfectShuttle
	case schedule.Move:
		return p.MoveTime * float64(op.Hops), !opt.PerfectShuttle
	case schedule.JunctionCross:
		return p.JunctionTime(op.Junctions), !opt.PerfectShuttle
	case schedule.Merge:
		return p.MergeTime, !opt.PerfectShuttle
	case schedule.Measure:
		return p.MeasureTime, true
	case schedule.Barrier:
		return 0, true
	}
	return 0, false
}

// clock holds when each qubit is next free, in µs.
type clock []float64

// start returns when an op on qubits begins: once all of them are free.
func (c clock) start(qubits []int) float64 {
	t := 0.0
	for _, q := range qubits {
		if c[q] > t {
			t = c[q]
		}
	}
	return t
}

// hold keeps qubits busy until end.
func (c clock) hold(qubits []int, end float64) {
	for _, q := range qubits {
		c[q] = end
	}
}

// Run simulates schedule s on topo: per-qubit clocks advance through gate
// and transport durations; per-trap phonon occupations accumulate k1/k2
// quanta from transport plus Γ·t background heating; each two-qubit gate
// multiplies Eq. 4's fidelity into the success rate.
func Run(s *schedule.Schedule, topo *device.Topology, opt Options) Metrics {
	p := &opt.Params
	clk := make(clock, s.NumQubits)
	nbarOps := make([]float64, topo.NumTraps())
	logSuccess := 0.0
	dead := false

	addF := func(f float64) {
		if f <= 0 {
			dead = true
			return
		}
		logSuccess += math.Log(f)
	}
	// nbar at a trap when a gate starts: transport quanta + background.
	nbarAt := func(trap int, t float64) float64 {
		return nbarOps[trap] + p.Gamma*t*1e-6
	}
	// Only transport changes a trap's quanta, so the peak is checked there.
	maxNbar := 0.0
	heat := func(trap int, quanta float64) {
		nbarOps[trap] += quanta
		if nbarOps[trap] > maxNbar {
			maxNbar = nbarOps[trap]
		}
	}

	for i := range s.Ops {
		op := &s.Ops[i]
		dur, ok := opTime(op, &opt)
		if !ok {
			continue
		}
		start := clk.start(op.Qubits)
		switch op.Kind {
		case schedule.Gate1Q:
			addF(p.OneQubitFidelity)
		case schedule.Gate2Q, schedule.SwapGate:
			if p.T2 > 0 {
				// Idle dephasing: the earlier-arriving qubit waits.
				idle := (start - clk[op.Qubits[0]]) + (start - clk[op.Qubits[1]])
				addF(math.Exp(-idle / p.T2))
			}
			addF(p.TwoQubitFidelity(dur, op.ChainLen, nbarAt(op.Trap, start)))
		case schedule.Split:
			heat(op.Trap, p.K1/2)
		case schedule.Merge:
			heat(op.Trap, p.K1/2+p.K2)
		}
		clk.hold(op.Qubits, start+dur)
	}

	m := Metrics{Counts: s.Counts(), MaxNbar: maxNbar}
	for _, t := range clk {
		if t > m.ExecutionTime {
			m.ExecutionTime = t
		}
	}
	if dead {
		m.LogSuccess = math.Inf(-1)
		m.SuccessRate = 0
	} else {
		m.LogSuccess = logSuccess
		m.SuccessRate = math.Exp(logSuccess)
	}
	return m
}

// Timeline lays s out on per-qubit lanes under the clock Run scores
// with: the same durations, start rule and dropped ops.
func Timeline(s *schedule.Schedule, opt Options) *schedule.Timeline {
	t := &schedule.Timeline{NumQubits: s.NumQubits, Lanes: make([][]schedule.Interval, s.NumQubits)}
	clk := make(clock, s.NumQubits)
	for i := range s.Ops {
		op := &s.Ops[i]
		dur, ok := opTime(op, &opt)
		if !ok {
			continue
		}
		start := clk.start(op.Qubits)
		end := start + dur
		iv := schedule.Interval{Op: *op, Start: start, End: end}
		for _, q := range op.Qubits {
			t.Lanes[q] = append(t.Lanes[q], iv)
		}
		clk.hold(op.Qubits, end)
		if end > t.Makespan {
			t.Makespan = end
		}
	}
	return t
}
