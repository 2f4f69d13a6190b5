package circuit

import "fmt"

// DAG is the gate-dependency graph of a circuit (Sec. 3.1). Node i is gate i
// of the source circuit; a directed edge (g_i, g_j) means g_j may execute
// only after g_i. Construction is O(|gates|) using per-wire last-writer
// tracking. The DAG tracks the executable frontier (in-degree-zero nodes)
// and supports completing nodes, after which their successors may join the
// frontier.
type DAG struct {
	circ      *Circuit
	succ      [][]int
	indeg     []int
	frontier  []int
	inFront   []bool
	done      []bool
	remaining int
}

// NewDAG builds the dependency graph of c.
func NewDAG(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		circ:      c,
		succ:      make([][]int, n),
		indeg:     make([]int, n),
		inFront:   make([]bool, n),
		done:      make([]bool, n),
		remaining: n,
	}
	lastOnWire := make([]int, c.NumQubits)
	for i := range lastOnWire {
		lastOnWire[i] = -1
	}
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			if p := lastOnWire[q]; p >= 0 {
				d.succ[p] = append(d.succ[p], i)
				d.indeg[i]++
			}
			lastOnWire[q] = i
		}
	}
	d.addClassicalDeps(c)
	for i := 0; i < n; i++ {
		if d.indeg[i] == 0 {
			d.frontier = append(d.frontier, i)
			d.inFront[i] = true
		}
	}
	return d
}

// addClassicalDeps folds the classical-register edges into a DAG whose
// quantum-wire edges are already built, deduplicating against them (a
// measurement and a condition often share a wire too). Called before the
// frontier is derived; a no-op for circuits without classical control.
func (d *DAG) addClassicalDeps(c *Circuit) {
	hasCond := false
	for _, g := range c.Gates {
		if g.Cond != nil {
			hasCond = true
			break
		}
	}
	if !hasCond {
		return
	}
	seen := make(map[[2]int]bool)
	for from, succs := range d.succ {
		for _, to := range succs {
			seen[[2]int{from, to}] = true
		}
	}
	forEachClassicalDep(c, func(from, to int) {
		k := [2]int{from, to}
		if seen[k] {
			return
		}
		seen[k] = true
		d.succ[from] = append(d.succ[from], to)
		d.indeg[to]++
	})
}

// forEachClassicalDep enumerates the dependencies flowing through the
// classical register file, which the per-wire analyses cannot see: a
// measurement writes a classical bit and a conditioned gate reads its
// register. The IR does not record which register a measurement targets
// (the canonical writer maps every measurement onto the flat register
// c[n]), so the ordering is conservative: every conditioned gate depends
// on every preceding measurement (read-after-write — the condition must
// observe the freshest outcomes), and every measurement depends on every
// preceding conditioned gate (write-after-read — the write must not
// overtake a pending read). Conditioned gates stay mutually unordered
// (reads commute), as do plain measurements (distinct wires, distinct
// canonical bits). Cost is |measures|·|conditioned| edge callbacks, paid
// only by circuits that use classical control; add must tolerate
// duplicates but never sees from == to.
func forEachClassicalDep(c *Circuit, add func(from, to int)) {
	var measures, conds []int
	for i, g := range c.Gates {
		isCond := g.Cond != nil
		isMeasure := g.Name == "measure"
		if isCond {
			for _, m := range measures {
				add(m, i)
			}
		}
		if isMeasure {
			for _, r := range conds {
				add(r, i)
			}
		}
		if isCond {
			conds = append(conds, i)
		}
		if isMeasure {
			measures = append(measures, i)
		}
	}
}

// Gate returns the gate for node id.
func (d *DAG) Gate(id int) Gate { return d.circ.Gates[id] }

// Frontier returns the ids of currently executable (dependency-free) gates
// in ascending program order. The returned slice is owned by the DAG; do not
// mutate it.
func (d *DAG) Frontier() []int { return d.frontier }

// Done reports whether every gate has been completed.
func (d *DAG) Done() bool { return d.remaining == 0 }

// Remaining returns the number of uncompleted gates.
func (d *DAG) Remaining() int { return d.remaining }

// Complete marks frontier node id as executed, removing it and promoting any
// successors whose dependencies are now satisfied.
func (d *DAG) Complete(id int) {
	if id < 0 || id >= len(d.done) {
		panic(fmt.Sprintf("circuit: DAG.Complete(%d) out of range", id))
	}
	if d.done[id] {
		panic(fmt.Sprintf("circuit: DAG.Complete(%d) called twice", id))
	}
	if !d.inFront[id] {
		panic(fmt.Sprintf("circuit: DAG.Complete(%d): gate is not in the frontier", id))
	}
	d.done[id] = true
	d.remaining--
	for i, f := range d.frontier {
		if f == id {
			d.frontier = append(d.frontier[:i], d.frontier[i+1:]...)
			break
		}
	}
	d.inFront[id] = false
	for _, s := range d.succ[id] {
		d.indeg[s]--
		if d.indeg[s] == 0 {
			d.insertFrontier(s)
		}
	}
}

// insertFrontier keeps the frontier sorted by gate id so scheduling is
// deterministic and respects program order among independent gates.
func (d *DAG) insertFrontier(id int) {
	lo, hi := 0, len(d.frontier)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.frontier[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	d.frontier = append(d.frontier, 0)
	copy(d.frontier[lo+1:], d.frontier[lo:])
	d.frontier[lo] = id
	d.inFront[id] = true
}

// Lookahead returns up to k upcoming two-qubit gates in a breadth-first
// order starting from the frontier, used by heuristics that weigh near-future
// interactions (Sec. 3.4's first-k-layers window).
func (d *DAG) Lookahead(k int) []Gate {
	if k <= 0 {
		return nil
	}
	var out []Gate
	visited := make(map[int]bool)
	queue := append([]int(nil), d.frontier...)
	for _, id := range queue {
		visited[id] = true
	}
	for len(queue) > 0 && len(out) < k {
		id := queue[0]
		queue = queue[1:]
		g := d.circ.Gates[id]
		if g.IsTwoQubit() {
			out = append(out, g)
		}
		for _, s := range d.succ[id] {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, s)
			}
		}
	}
	return out
}

// FrontierTwoQubit returns the two-qubit gates currently in the frontier.
func (d *DAG) FrontierTwoQubit() []int {
	var out []int
	for _, id := range d.frontier {
		if d.circ.Gates[id].IsTwoQubit() {
			out = append(out, id)
		}
	}
	return out
}
