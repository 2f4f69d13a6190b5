// Package router provides the op-emitting primitives shared by every
// compiler in this repository: swapping ions toward trap edges, shifting
// space nodes, performing split-move-merge shuttles (with junction
// crossings), clearing receiving slots, hole-propagation to free space in
// full traps, and a complete deterministic trap-to-trap routing procedure.
// The S-SYNC scheduler uses these primitives to materialise generic swaps
// (and as its guaranteed-progress fallback); the Murali and Dai baselines
// are built directly on them.
package router

import (
	"fmt"

	"ssync/internal/circuit"
	"ssync/internal/device"
	"ssync/internal/schedule"
)

// Emitter couples the mutable placement with the schedule under
// construction; every mutation both updates the placement and appends the
// corresponding hardware ops.
type Emitter struct {
	Topo *device.Topology
	P    *device.Placement
	S    *schedule.Schedule

	// Arena blocks backing the Qubits/Params slices of emitted ops, so
	// emission costs one block allocation per ~hundreds of ops instead of
	// one per op. Ops only ever read these slices after emission (they are
	// length-capped, so even an append could not clobber a neighbour).
	// Zero-valued Emitters lazily allocate their first block.
	intBlock []int
	f64Block []float64
}

// emitBlockInts sizes the arena blocks (in elements).
const emitBlockInts = 512

// ints returns a fresh length-capped arena slice of n ints.
func (e *Emitter) ints(n int) []int {
	if len(e.intBlock)+n > cap(e.intBlock) {
		sz := emitBlockInts
		if n > sz {
			sz = n
		}
		e.intBlock = make([]int, 0, sz)
	}
	l := len(e.intBlock)
	e.intBlock = e.intBlock[:l+n]
	return e.intBlock[l : l+n : l+n]
}

// qubits1 / qubits2 build arena-backed operand lists.
func (e *Emitter) qubits1(q int) []int {
	s := e.ints(1)
	s[0] = q
	return s
}

func (e *Emitter) qubits2(a, b int) []int {
	s := e.ints(2)
	s[0], s[1] = a, b
	return s
}

func (e *Emitter) qubitsCopy(qs []int) []int {
	if len(qs) == 0 {
		return nil
	}
	s := e.ints(len(qs))
	copy(s, qs)
	return s
}

func (e *Emitter) paramsCopy(ps []float64) []float64 {
	if len(ps) == 0 {
		return nil
	}
	if len(e.f64Block)+len(ps) > cap(e.f64Block) {
		sz := emitBlockInts
		if len(ps) > sz {
			sz = len(ps)
		}
		e.f64Block = make([]float64, 0, sz)
	}
	l := len(e.f64Block)
	e.f64Block = e.f64Block[:l+len(ps)]
	s := e.f64Block[l : l+len(ps) : l+len(ps)]
	copy(s, ps)
	return s
}

// EmitSwap interchanges two ions in one trap and records the SWAP gate.
func (e *Emitter) EmitSwap(tr, i, j int) {
	a, b := e.P.At(tr, i), e.P.At(tr, j)
	if a == device.Empty || b == device.Empty {
		panic(fmt.Sprintf("router: EmitSwap(%d,%d,%d) on non-ion slots", tr, i, j))
	}
	e.S.Append(schedule.Op{
		Kind:     schedule.SwapGate,
		Qubits:   e.qubits2(a, b),
		Trap:     tr,
		ChainLen: e.P.IonCount(tr),
		IonDist:  e.P.IonsBetween(tr, i, j),
		SlotA:    i,
		SlotB:    j,
	})
	e.P.SwapWithin(tr, i, j)
}

// EmitShift moves an ion into an adjacent empty slot (free reposition).
func (e *Emitter) EmitShift(tr, from, to int) {
	q := e.P.At(tr, from)
	if q == device.Empty || e.P.At(tr, to) != device.Empty {
		panic(fmt.Sprintf("router: EmitShift(%d,%d,%d) needs ion->space", tr, from, to))
	}
	e.S.Append(schedule.Op{
		Kind:   schedule.Shift,
		Qubits: e.qubits1(q),
		Trap:   tr,
		SlotA:  from,
		SlotB:  to,
	})
	e.P.SwapWithin(tr, from, to)
}

// EmitShuttle splits the ion at `from`'s attachment end of seg, moves it
// (crossing junctions as needed) and merges it into the far trap.
func (e *Emitter) EmitShuttle(seg device.Segment, from int) (int, error) {
	if !e.P.CanShuttle(seg, from) {
		return 0, fmt.Errorf("router: illegal shuttle seg %d from trap %d", seg.ID, from)
	}
	to := seg.Other(from)
	q := e.P.At(from, e.P.EndSlot(from, seg.EndAt(from)))
	e.S.Append(schedule.Op{
		Kind: schedule.Split, Qubits: e.qubits1(q), Trap: from, ChainLen: e.P.IonCount(from),
		SlotA: e.P.EndSlot(from, seg.EndAt(from)),
	})
	e.S.Append(schedule.Op{
		Kind: schedule.Move, Qubits: e.qubits1(q), Segment: seg.ID, Hops: seg.Hops,
	})
	if seg.Junctions > 0 {
		e.S.Append(schedule.Op{
			Kind: schedule.JunctionCross, Qubits: e.qubits1(q), Segment: seg.ID, Junctions: seg.Junctions,
		})
	}
	if _, err := e.P.Shuttle(seg, from); err != nil {
		return 0, err
	}
	e.S.Append(schedule.Op{
		Kind: schedule.Merge, Qubits: e.qubits1(q), Trap: to, ChainLen: e.P.IonCount(to),
	})
	return q, nil
}

// BringToEnd moves qubit q to the given end slot of its trap, emitting a
// Shift for every space passed and a SWAP gate for every ion passed
// (Obs. 2: ions can only split from trap edges).
func (e *Emitter) BringToEnd(q int, end device.End) {
	l := e.P.Where(q)
	target := e.P.EndSlot(l.Trap, end)
	step := 1
	if target < l.Slot {
		step = -1
	}
	for s := l.Slot; s != target; s += step {
		if e.P.At(l.Trap, s+step) == device.Empty {
			e.EmitShift(l.Trap, s, s+step)
		} else {
			e.EmitSwap(l.Trap, s, s+step)
		}
	}
}

// ClearEndSlot vacates the given end slot of a trap by shifting the nearest
// internal space to the end (rule 4 of Sec. 3.1). The trap must have space.
func (e *Emitter) ClearEndSlot(tr int, end device.End) error {
	endSlot := e.P.EndSlot(tr, end)
	if e.P.At(tr, endSlot) == device.Empty {
		return nil
	}
	empty := e.P.FreeSlotTowards(tr, end)
	if empty < 0 {
		return fmt.Errorf("router: trap %d has no space to clear its end", tr)
	}
	if empty < endSlot {
		for s := empty + 1; s <= endSlot; s++ {
			e.EmitShift(tr, s, s-1)
		}
	} else {
		for s := empty - 1; s >= endSlot; s-- {
			e.EmitShift(tr, s, s+1)
		}
	}
	return nil
}

// MakeSpace frees at least one slot in trap tr by propagating a hole from
// the nearest trap that has space: along the trap path, border ions shuttle
// one hop away from tr. Ions in `avoid` are never selected to move.
func (e *Emitter) MakeSpace(tr int, avoid map[int]bool) error {
	if e.P.HasSpace(tr) {
		return nil
	}
	// BFS by weighted trap distance for the nearest trap with space.
	best, bestDist := -1, 0.0
	for t := 0; t < e.Topo.NumTraps(); t++ {
		if t != tr && e.P.HasSpace(t) {
			if d := e.Topo.TrapDistance(tr, t); best < 0 || d < bestDist {
				best, bestDist = t, d
			}
		}
	}
	if best < 0 {
		return fmt.Errorf("router: device completely full; cannot make space in trap %d", tr)
	}
	// Trap path tr -> best; shuttle one ion across each segment, starting
	// nearest the space so every receiving trap has room when needed.
	segs := e.Topo.TrapPath(tr, best)
	from := tr
	traps := []int{tr}
	for _, si := range segs {
		from = e.Topo.Segments[si].Other(from)
		traps = append(traps, from)
	}
	for i := len(segs) - 1; i >= 0; i-- {
		seg := e.Topo.Segments[segs[i]]
		src, dst := traps[i], traps[i+1]
		if err := e.shuttleBorderIon(seg, src, dst, avoid); err != nil {
			return err
		}
	}
	return nil
}

// shuttleBorderIon moves the cheapest eligible ion of src across seg into
// dst, positioning it at src's attachment end and clearing dst's receiving
// end first.
func (e *Emitter) shuttleBorderIon(seg device.Segment, src, dst int, avoid map[int]bool) error {
	exitEnd := seg.EndAt(src)
	// Pick the ion with the fewest swaps to the exit end, skipping avoided
	// ions when possible.
	bestQ, bestCost := -1, 0
	for _, q := range e.P.QubitsInTrap(src) {
		cost := e.P.SwapsToEnd(src, e.P.Where(q).Slot, exitEnd)
		if avoid[q] {
			continue
		}
		if bestQ < 0 || cost < bestCost {
			bestQ, bestCost = q, cost
		}
	}
	if bestQ < 0 {
		// Everything is avoided; take the cheapest regardless.
		for _, q := range e.P.QubitsInTrap(src) {
			cost := e.P.SwapsToEnd(src, e.P.Where(q).Slot, exitEnd)
			if bestQ < 0 || cost < bestCost {
				bestQ, bestCost = q, cost
			}
		}
	}
	if bestQ < 0 {
		return fmt.Errorf("router: trap %d is empty; no ion to shuttle", src)
	}
	if err := e.ClearEndSlot(dst, seg.EndAt(dst)); err != nil {
		return err
	}
	e.BringToEnd(bestQ, exitEnd)
	_, err := e.EmitShuttle(seg, src)
	return err
}

// RouteToTrap moves qubit q hop by hop along a shortest trap path into
// trap target, making space and clearing edges as required. Ions listed in
// avoid (plus q itself) are never evicted along the way. This is the
// deterministic forward router: it always terminates and is the baseline
// compilers' core move as well as S-SYNC's stall fallback.
func (e *Emitter) RouteToTrap(q, target int, avoid ...int) error {
	avoidSet := map[int]bool{q: true}
	for _, a := range avoid {
		avoidSet[a] = true
	}
	for e.P.Where(q).Trap != target {
		src := e.P.Where(q).Trap
		segID := e.Topo.NextSegment(src, target)
		if segID < 0 {
			return fmt.Errorf("router: no path from trap %d to %d", src, target)
		}
		seg := e.Topo.Segments[segID]
		dst := seg.Other(src)
		if !e.P.HasSpace(dst) {
			if err := e.MakeSpace(dst, avoidSet); err != nil {
				return err
			}
		}
		if err := e.ClearEndSlot(dst, seg.EndAt(dst)); err != nil {
			return err
		}
		e.BringToEnd(q, seg.EndAt(src))
		if _, err := e.EmitShuttle(seg, src); err != nil {
			return err
		}
	}
	return nil
}

// ExecuteGate emits a program gate; for two-qubit gates both ions must be
// co-trapped.
func (e *Emitter) ExecuteGate(g circuit.Gate) error {
	switch {
	case g.Name == "barrier":
		e.S.Append(schedule.Op{Kind: schedule.Barrier, Qubits: e.qubitsCopy(g.Qubits)})
	case g.Name == "measure":
		l := e.P.Where(g.Qubits[0])
		e.S.Append(schedule.Op{Kind: schedule.Measure, Qubits: e.qubits1(g.Qubits[0]), Trap: l.Trap})
	case g.IsSingleQubit():
		l := e.P.Where(g.Qubits[0])
		e.S.Append(schedule.Op{
			Kind: schedule.Gate1Q, Name: g.Name,
			Qubits: e.qubits1(g.Qubits[0]), Params: e.paramsCopy(g.Params),
			Trap: l.Trap, ChainLen: e.P.IonCount(l.Trap),
		})
	case g.IsTwoQubit():
		l1, l2 := e.P.Where(g.Qubits[0]), e.P.Where(g.Qubits[1])
		if l1.Trap != l2.Trap {
			return fmt.Errorf("router: gate %s with ions in traps %d and %d", g, l1.Trap, l2.Trap)
		}
		e.S.Append(schedule.Op{
			Kind: schedule.Gate2Q, Name: g.Name,
			Qubits: e.qubits2(g.Qubits[0], g.Qubits[1]), Params: e.paramsCopy(g.Params),
			Trap: l1.Trap, ChainLen: e.P.IonCount(l1.Trap),
			IonDist: e.P.IonsBetween(l1.Trap, l1.Slot, l2.Slot),
		})
	default:
		return fmt.Errorf("router: cannot execute gate %s", g)
	}
	return nil
}

// Executable reports whether gate g can run under the current placement.
func (e *Emitter) Executable(g circuit.Gate) bool {
	if !g.IsTwoQubit() {
		return true
	}
	return e.P.Where(g.Qubits[0]).Trap == e.P.Where(g.Qubits[1]).Trap
}
