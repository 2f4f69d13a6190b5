package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/schedule"
)

// resultMagic versions the disk-tier blob form of a compiled result;
// decodeResult treats any other prefix as undecodable, which the tiered
// store absorbs as a miss (the entry is then recompiled and overwritten).
const resultMagic = "ssync-result-v1\x00"

// placementArtifact is a placement as plain qubit→{trap, slot}
// coordinates ({-1,-1} while unplaced — device.Placement.SlotList); the
// topology is rebound at decode time from the request, which the blob's
// content address covers.
type placementArtifact [][2]int

// resultArtifact is the self-contained wire form of core.Result for the
// artifact store's disk tier.
type resultArtifact struct {
	NumQubits   int               `json:"num_qubits"`
	Ops         []schedule.Op     `json:"ops"`
	Initial     placementArtifact `json:"initial,omitempty"`
	Final       placementArtifact `json:"final,omitempty"`
	Counts      schedule.Counts   `json:"counts"`
	CompileTime time.Duration     `json:"compile_time_ns"`
	Iterations  int               `json:"iterations,omitempty"`
	Fallbacks   int               `json:"fallbacks,omitempty"`
	Timings     []core.PassTiming `json:"timings,omitempty"`
}

func encodePlacement(p *device.Placement) placementArtifact {
	if p == nil {
		return nil
	}
	return p.SlotList()
}

func decodePlacement(a placementArtifact, topo *device.Topology) (*device.Placement, error) {
	if a == nil {
		return nil, nil
	}
	return device.FromSlotList(topo, a)
}

// encodeResult renders a compiled result as a versioned blob.
func encodeResult(res *core.Result) ([]byte, error) {
	if res == nil || res.Schedule == nil {
		return nil, fmt.Errorf("engine: cannot encode a result without a schedule")
	}
	body, err := json.Marshal(resultArtifact{
		NumQubits:   res.Schedule.NumQubits,
		Ops:         res.Schedule.Ops,
		Initial:     encodePlacement(res.Initial),
		Final:       encodePlacement(res.Final),
		Counts:      res.Counts,
		CompileTime: res.CompileTime,
		Iterations:  res.Iterations,
		Fallbacks:   res.Fallbacks,
		Timings:     res.PassTimings,
	})
	if err != nil {
		return nil, err
	}
	return append([]byte(resultMagic), body...), nil
}

// decodeResult parses a blob written by encodeResult, rebinding its
// placements to topo (the requesting device — the blob's key covers the
// topology, so they always agree). A checksum-valid blob may still come
// from another build or another writer of a shared directory, so the
// schedule is checked before anything scores it.
func decodeResult(blob []byte, topo *device.Topology) (*core.Result, error) {
	body, ok := bytes.CutPrefix(blob, []byte(resultMagic))
	if !ok {
		return nil, fmt.Errorf("engine: not a %q result blob", resultMagic[:len(resultMagic)-1])
	}
	var a resultArtifact
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("engine: result blob: %w", err)
	}
	sched := &schedule.Schedule{NumQubits: a.NumQubits, Ops: a.Ops}
	if err := checkSchedule(sched, topo); err != nil {
		return nil, fmt.Errorf("engine: result blob: %w", err)
	}
	if c := sched.Counts(); c != a.Counts {
		return nil, fmt.Errorf("engine: result blob counts %+v disagree with its schedule's %+v", a.Counts, c)
	}
	initial, err := decodePlacement(a.Initial, topo)
	if err != nil {
		return nil, fmt.Errorf("engine: result blob initial placement: %w", err)
	}
	final, err := decodePlacement(a.Final, topo)
	if err != nil {
		return nil, fmt.Errorf("engine: result blob final placement: %w", err)
	}
	return &core.Result{
		Schedule:    sched,
		Initial:     initial,
		Final:       final,
		Counts:      a.Counts,
		CompileTime: a.CompileTime,
		Iterations:  a.Iterations,
		Fallbacks:   a.Fallbacks,
		PassTimings: a.Timings,
	}, nil
}

// checkSchedule rejects a schedule that fails Schedule.Validate, has
// more qubits than topo holds ions, or names a trap or segment outside
// topo; sim.Run sizes its clocks by the qubit count and indexes qubits
// and traps without bounds checks.
func checkSchedule(s *schedule.Schedule, topo *device.Topology) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.NumQubits > topo.TotalCapacity() {
		return fmt.Errorf("%d qubits on a %d-ion device", s.NumQubits, topo.TotalCapacity())
	}
	for i, op := range s.Ops {
		switch op.Kind {
		case schedule.Barrier:
		case schedule.Move, schedule.JunctionCross:
			if op.Segment < 0 || op.Segment >= len(topo.Segments) {
				return fmt.Errorf("op %d (%s) names segment %d of %d", i, op.Kind, op.Segment, len(topo.Segments))
			}
		default:
			if op.Trap < 0 || op.Trap >= topo.NumTraps() {
				return fmt.Errorf("op %d (%s) names trap %d of %d", i, op.Kind, op.Trap, topo.NumTraps())
			}
		}
	}
	return nil
}
