package engine

import (
	"fmt"
	"slices"

	"ssync/internal/circuit"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/pass"
)

// snapshot is the pipeline State at a stage boundary before routing, as
// the stage cache keeps it in memory: the working circuit by pointer
// (passes replace it and never mutate it, so every resume may share
// it), the placement as qubit→{trap, slot} coordinates ({-1, -1} while
// unplaced; nil before any placement stage), and the timings of the
// stages that produced the boundary.
type snapshot struct {
	circuit *circuit.Circuit
	slots   [][2]int
	timings []core.PassTiming
}

// capture snapshots st at a stage boundary. A boundary after a routing
// stage is refused (ok is false): a State carrying a Result is the
// finished artifact the result cache stores.
func capture(st *pass.State) (*snapshot, bool) {
	if st.Result != nil || st.Circuit == nil {
		return nil, false
	}
	s := &snapshot{circuit: st.Circuit, timings: slices.Clone(st.Timings)}
	if st.Placement != nil {
		s.slots = st.Placement.SlotList()
	}
	return s, true
}

// restore rebuilds req's pipeline State at the snapshot's boundary, with
// the restored stages' timings so the result still itemises the whole
// pipeline. The placement is rebuilt on the request's topology: routing
// passes consume placements, so a restored State never aliases the
// cached one.
func (s *snapshot) restore(req Request) (*pass.State, error) {
	st := newState(req)
	st.Circuit = s.circuit
	st.Timings = slices.Clone(s.timings)
	if s.slots != nil {
		p, err := device.FromSlotList(req.Topo, s.slots)
		if err != nil {
			return nil, fmt.Errorf("engine: stage snapshot placement: %w", err)
		}
		st.Placement = p
	}
	return st, nil
}
