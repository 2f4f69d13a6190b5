package schedule

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is one timed operation on one qubit's lane.
type Interval struct {
	Op    Op
	Start float64 // µs
	End   float64 // µs
}

// Timeline is the timed expansion of a schedule: per-qubit lanes of
// non-overlapping intervals. sim.Timeline builds one under the
// simulator's clock. It powers parallelism analysis and Gantt-style
// rendering.
type Timeline struct {
	NumQubits int
	Lanes     [][]Interval
	Makespan  float64
}

// Stats summarises a timeline.
type TimelineStats struct {
	Makespan      float64
	BusyTime      float64 // total qubit-µs spent in operations
	TransportTime float64 // qubit-µs in shift/split/move/junction/merge
	GateTime      float64 // qubit-µs in 1Q/2Q/SWAP gates
	AvgParallel   float64 // mean number of concurrently busy qubits
	MaxParallel   int
	CriticalQubit int // qubit whose lane ends last
}

// Stats computes aggregate utilisation and parallelism over the timeline.
func (t *Timeline) Stats() TimelineStats {
	st := TimelineStats{CriticalQubit: -1}
	type event struct {
		at    float64
		delta int
	}
	var events []event
	lastEnd := -1.0
	for q, lane := range t.Lanes {
		for _, iv := range lane {
			dur := iv.End - iv.Start
			st.BusyTime += dur
			switch iv.Op.Kind {
			case Shift, Split, Move, JunctionCross, Merge:
				st.TransportTime += dur
			case Gate1Q, Gate2Q, SwapGate:
				st.GateTime += dur
			}
			if dur > 0 {
				events = append(events, event{iv.Start, 1}, event{iv.End, -1})
			}
		}
		if n := len(lane); n > 0 && lane[n-1].End > lastEnd {
			lastEnd = lane[n-1].End
			st.CriticalQubit = q
		}
	}
	st.Makespan = t.Makespan
	if t.Makespan > 0 {
		st.AvgParallel = st.BusyTime / t.Makespan
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta // process ends before starts
	})
	cur := 0
	for _, e := range events {
		cur += e.delta
		if cur > st.MaxParallel {
			st.MaxParallel = cur
		}
	}
	return st
}

// Gantt renders an ASCII utilisation chart: one row per qubit, `width`
// columns spanning the makespan; gate ops print as '#', SWAPs as 'x',
// transport as '~', idle as '.'.
func (t *Timeline) Gantt(width int) string {
	if width < 1 {
		width = 60
	}
	if t.Makespan <= 0 {
		return ""
	}
	var b strings.Builder
	scale := float64(width) / t.Makespan
	for q, lane := range t.Lanes {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range lane {
			lo := int(iv.Start * scale)
			hi := int(math.Ceil(iv.End * scale))
			if hi > width {
				hi = width
			}
			if hi <= lo {
				hi = lo + 1
				if hi > width {
					lo, hi = width-1, width
				}
			}
			var ch byte
			switch iv.Op.Kind {
			case Gate1Q, Gate2Q:
				ch = '#'
			case SwapGate:
				ch = 'x'
			case Shift, Split, Move, JunctionCross, Merge:
				ch = '~'
			case Measure:
				ch = 'M'
			default:
				continue
			}
			for i := lo; i < hi; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "q%-3d |%s|\n", q, row)
	}
	fmt.Fprintf(&b, "      0%*s%.0fµs\n", width-len(fmt.Sprintf("%.0fµs", t.Makespan))+3, "", t.Makespan)
	return b.String()
}

// Validate checks per-lane monotonicity and interval sanity.
func (t *Timeline) Validate() error {
	for q, lane := range t.Lanes {
		prev := 0.0
		for i, iv := range lane {
			if iv.End < iv.Start {
				return fmt.Errorf("schedule: timeline lane %d interval %d ends before it starts", q, i)
			}
			if iv.Start < prev-1e-9 {
				return fmt.Errorf("schedule: timeline lane %d interval %d overlaps predecessor", q, i)
			}
			prev = iv.End
		}
	}
	return nil
}
