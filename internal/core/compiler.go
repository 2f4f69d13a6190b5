package core

import (
	"context"
	"fmt"
	"time"

	"ssync/internal/circuit"
	"ssync/internal/device"
	"ssync/internal/mapping"
	"ssync/internal/router"
	"ssync/internal/schedule"
)

// Result is the output of one compilation.
type Result struct {
	Schedule *schedule.Schedule
	// Initial and Final capture the placement before and after execution.
	Initial *device.Placement
	Final   *device.Placement
	Counts  schedule.Counts
	// CompileTime is wall-clock scheduling time (Fig. 15). For pipeline
	// compilations it spans the whole pipeline; PassTimings itemises it.
	CompileTime time.Duration
	// Iterations counts heuristic search iterations. Fallbacks counts
	// forced-routing interventions: each time the search admits no
	// descending generic swap, or Config.MaxStall iterations pass without
	// an executed gate, the deterministic fallback router moves the first
	// blocked gate's qubits together. It fires on the paper benchmarks at
	// default settings: 2 times over the quick Figs. 8–10 grid's ssync
	// cells and 421 times over the full grid, where it is non-zero on 24
	// of 27 cells. ROADMAP item 6 tracks reporting and reducing it.
	Iterations int
	Fallbacks  int
	// PassTimings itemises a pipeline compilation stage by stage, in
	// execution order; empty for monolithic (non-pipeline) compilers. The
	// timings travel with the result through the engine's cache, so a
	// cache-hit response reports the timings of the compilation that
	// produced it (like CompileTime).
	PassTimings []PassTiming
}

// PassTiming records one pipeline pass's execution: its wall time and how
// it changed the working gate count (source-circuit gates until a routing
// pass produces a schedule, scheduled ops afterwards — so decomposition
// shows basis expansion and routing shows transport overhead).
type PassTiming struct {
	Pass      string
	Duration  time.Duration
	GateDelta int
}

// compilation is the in-flight state of one Compile call.
type compilation struct {
	cfg   Config
	topo  *device.Topology
	dag   *circuit.DAG
	place *device.Placement
	em    *router.Emitter
	heur  heuristic

	iter      int
	lastTouch []int     // iteration a qubit last rode a generic swap
	heat      []float64 // per-trap transport quanta (HeatAware policy)
	lastMove  move
	haveLast  bool

	// Per-iteration scratch, reused across the search loop so the hot
	// path stops allocating candidate/frontier/lookahead buffers every
	// iteration. Each is reset (not reallocated) where it is filled.
	candSeen    map[[5]int]bool
	candBuf     []move
	pairsBuf    [][2]int
	decaysBuf   []float64
	futureBuf   [][2]int
	inFrontier  map[[2]int]bool
	frontierBuf []int
	movedBuf    [2]int
}

// Compile schedules circuit c onto topo with the configured initial
// mapping, returning the hardware-compatible op stream and statistics.
func Compile(cfg Config, c *circuit.Circuit, topo *device.Topology) (*Result, error) {
	return CompileCtx(context.Background(), cfg, c, topo)
}

// CompileCtx is Compile with cooperative cancellation: the scheduler
// checks ctx between iterations and aborts with ctx's error once it is
// cancelled or past its deadline.
func CompileCtx(ctx context.Context, cfg Config, c *circuit.Circuit, topo *device.Topology) (*Result, error) {
	basis := c.DecomposeToBasis()
	place, err := mapping.Initial(cfg.Mapping, basis, topo)
	if err != nil {
		return nil, err
	}
	return CompileWithPlacementCtx(ctx, cfg, basis, topo, place)
}

// CompileWithPlacement runs Algorithm 1 from a caller-supplied initial
// placement. The circuit must already be in the native basis (1Q + cx/swap);
// use Circuit.DecomposeToBasis first if unsure. The placement is consumed
// (mutated into the final placement).
func CompileWithPlacement(cfg Config, c *circuit.Circuit, topo *device.Topology, place *device.Placement) (*Result, error) {
	return CompileWithPlacementCtx(context.Background(), cfg, c, topo, place)
}

// CompileWithPlacementCtx is CompileWithPlacement with cooperative
// cancellation (see CompileCtx).
func CompileWithPlacementCtx(ctx context.Context, cfg Config, c *circuit.Circuit, topo *device.Topology, place *device.Placement) (*Result, error) {
	start := time.Now()
	for _, g := range c.Gates {
		if g.Arity() > 2 {
			return nil, fmt.Errorf("core: gate %q has arity %d; decompose to the native basis first", g.Name, g.Arity())
		}
	}
	for q := 0; q < c.NumQubits; q++ {
		if place.Where(q).Trap < 0 {
			return nil, fmt.Errorf("core: qubit %d is unplaced", q)
		}
	}
	dag := circuit.NewDAG(c)
	if cfg.CommutationAware {
		dag = circuit.NewCommutationDAG(c)
	}
	comp := &compilation{
		cfg:       cfg,
		topo:      topo,
		dag:       dag,
		place:     place,
		lastTouch: make([]int, c.NumQubits),
		heat:      make([]float64, topo.NumTraps()),
	}
	for i := range comp.lastTouch {
		comp.lastTouch[i] = -1 << 30
	}
	comp.em = &router.Emitter{Topo: topo, P: place, S: schedule.New(c.NumQubits)}
	comp.heur = heuristic{cfg: cfg, topo: topo, p: place}

	res := &Result{Initial: place.Clone()}
	maxIter := 400*len(c.Gates) + 20000
	stall := 0
	done := ctx.Done()
	for !comp.dag.Done() {
		if err := PollInterrupt(ctx, done); err != nil {
			return nil, err
		}
		if comp.iter > maxIter {
			return nil, fmt.Errorf("core: scheduler exceeded %d iterations (likely livelock)", maxIter)
		}
		if comp.executeReady() {
			stall = 0
			continue
		}
		blocked := comp.dag.FrontierTwoQubit()
		if len(blocked) == 0 {
			// Frontier non-empty but nothing 2Q and nothing ready: cannot
			// happen (non-2Q gates always execute).
			return nil, fmt.Errorf("core: internal scheduling deadlock")
		}
		if stall >= cfg.MaxStall {
			if err := comp.fallback(blocked[0]); err != nil {
				return nil, err
			}
			res.Fallbacks++
			stall = 0
			continue
		}
		progressed, err := comp.step(blocked)
		if err != nil {
			return nil, err
		}
		if !progressed {
			if err := comp.fallback(blocked[0]); err != nil {
				return nil, err
			}
			res.Fallbacks++
			stall = 0
			continue
		}
		stall++
		comp.iter++
	}
	res.Schedule = comp.em.S
	res.Final = place
	res.Counts = comp.em.S.Counts()
	res.CompileTime = time.Since(start)
	res.Iterations = comp.iter
	return res, nil
}

// PollInterrupt reports ctx's error once it is cancelled; done is the
// pre-fetched ctx.Done() channel (nil means uncancellable, checked for
// free). Shared by every cooperatively-cancellable compile loop.
func PollInterrupt(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return fmt.Errorf("compilation interrupted: %w", ctx.Err())
	default:
		return nil
	}
}

// executeReady drains every currently executable frontier gate, returning
// whether any gate ran (Algorithm 1 steps 4–10).
func (c *compilation) executeReady() bool {
	ran := false
	for {
		progress := false
		// Copy the frontier (Complete mutates it mid-iteration) into
		// reusable scratch.
		c.frontierBuf = append(c.frontierBuf[:0], c.dag.Frontier()...)
		frontier := c.frontierBuf
		for _, id := range frontier {
			g := c.dag.Gate(id)
			if !c.em.Executable(g) {
				continue
			}
			if err := c.em.ExecuteGate(g); err != nil {
				panic(fmt.Sprintf("core: executable gate failed: %v", err))
			}
			c.dag.Complete(id)
			progress = true
			ran = true
		}
		if !progress {
			return ran
		}
	}
}

// step evaluates the candidate generic swaps against Eq. 1 and applies the
// best one (Algorithm 1 steps 11–19). A candidate is admissible only if it
// strictly lowers the undecayed minimum gate score — greedy descent, which
// keeps the search monotone and immune to score-plateau ping-pong; when no
// candidate descends, step returns false and the caller falls back to the
// deterministic router.
func (c *compilation) step(blocked []int) (bool, error) {
	cands := c.candidates(blocked)
	if len(cands) == 0 {
		return false, nil
	}
	pairs := c.blockedGatePairs(blocked)
	if cap(c.decaysBuf) < len(pairs) {
		c.decaysBuf = make([]float64, len(pairs))
	}
	decays := c.decaysBuf[:len(pairs)]
	for i, gid := range blocked[:len(pairs)] {
		decays[i] = c.decay(c.dag.Gate(gid))
	}
	rawBefore := 0.0
	for j, pr := range pairs {
		s := c.heur.score(pr[0], pr[1])
		if j == 0 || s < rawBefore {
			rawBefore = s
		}
	}
	// Near-future two-qubit gates (beyond the frontier) provide the
	// tie-breaking lookahead term of H.
	future := c.futureBuf[:0]
	if c.cfg.LookaheadGates > 0 {
		if c.inFrontier == nil {
			c.inFrontier = make(map[[2]int]bool, len(pairs))
		} else {
			clear(c.inFrontier)
		}
		for _, pr := range pairs {
			c.inFrontier[pr] = true
		}
		for _, g := range c.dag.Lookahead(c.cfg.LookaheadGates + len(pairs)) {
			pr := [2]int{g.Qubits[0], g.Qubits[1]}
			if c.inFrontier[pr] {
				continue
			}
			future = append(future, pr)
			if len(future) >= c.cfg.LookaheadGates {
				break
			}
		}
	}
	c.futureBuf = future
	combinedBefore := rawBefore + c.lookaheadTerm(future)

	bestIdx := -1
	bestH, bestPost := 0.0, 0.0
	for i, m := range cands {
		// Tabu: never immediately undo the previous generic swap.
		if c.haveLast && m.inverse(c.lastMove) {
			continue
		}
		if err := m.apply(c.place); err != nil {
			return false, fmt.Errorf("core: candidate apply: %w", err)
		}
		minScore, rawAfter := 0.0, 0.0
		for j, pr := range pairs {
			raw := c.heur.score(pr[0], pr[1])
			s := decays[j] * raw
			if j == 0 || raw < rawAfter {
				rawAfter = raw
			}
			if j == 0 || s < minScore {
				minScore = s
			}
		}
		lookahead := c.lookaheadTerm(future)
		if err := m.unapply(c.place); err != nil {
			return false, fmt.Errorf("core: candidate unapply: %w", err)
		}
		// Greedy descent on the undecayed combined objective: monotone,
		// bounded below, so the search cannot ping-pong on plateaus.
		if rawAfter+lookahead >= combinedBefore-1e-12 {
			continue
		}
		h := minScore + lookahead + m.weight(c.cfg, c.topo)
		if c.cfg.HeatAware && m.kind == moveShuttle {
			dst := c.topo.Segments[m.seg].Other(m.from)
			h += c.cfg.HeatWeight * c.heat[dst]
		}
		if bestIdx < 0 || h < bestH-1e-12 || (h < bestH+1e-12 && minScore < bestPost-1e-12) {
			bestIdx, bestH, bestPost = i, h, minScore
		}
	}
	if bestIdx < 0 {
		return false, nil
	}
	best := cands[bestIdx]
	touched := c.movedQubits(best)
	if err := c.emit(best); err != nil {
		return false, err
	}
	for _, q := range touched {
		c.lastTouch[q] = c.iter
	}
	c.lastMove, c.haveLast = best, true
	return true, nil
}

// lookaheadTerm evaluates the near-future tie-breaking term of H over the
// current placement (a method, not a closure, so the per-step capture
// allocation is gone from the search loop).
func (c *compilation) lookaheadTerm(future [][2]int) float64 {
	if len(future) == 0 {
		return 0
	}
	sum := 0.0
	for _, pr := range future {
		sum += c.heur.dis(pr[0], pr[1])
	}
	return c.cfg.LookaheadWeight * sum / float64(len(future))
}

// decay implements Eq. 1's penalty: 1+δ when either gate qubit rode a
// generic swap within the last DecayWindow iterations, else 1.
func (c *compilation) decay(g circuit.Gate) float64 {
	for _, q := range g.Qubits {
		if c.iter-c.lastTouch[q] <= c.cfg.DecayWindow {
			return 1 + c.cfg.Delta
		}
	}
	return 1
}

// emit materialises the chosen generic swap as hardware ops.
func (c *compilation) emit(m move) error {
	switch m.kind {
	case moveSwap:
		c.em.EmitSwap(m.trap, m.i, m.j)
	case moveShift:
		// EmitShift wants (ion, space) order.
		if c.place.At(m.trap, m.i) == device.Empty {
			c.em.EmitShift(m.trap, m.j, m.i)
		} else {
			c.em.EmitShift(m.trap, m.i, m.j)
		}
	case moveShuttle:
		seg := c.topo.Segments[m.seg]
		if _, err := c.em.EmitShuttle(seg, m.from); err != nil {
			return err
		}
		// Mirror the simulator's heating model in abstract units: the
		// split disturbs the source chain, the merge (plus the shuttled
		// segment) the destination chain.
		c.heat[m.from] += 0.5
		c.heat[seg.Other(m.from)] += 0.6
	}
	return nil
}

// fallback deterministically routes the first blocked gate's qubits
// together, guaranteeing forward progress when the heuristic finds no
// descending generic swap (local optimum).
func (c *compilation) fallback(gid int) error {
	g := c.dag.Gate(gid)
	q0, q1 := g.Qubits[0], g.Qubits[1]
	// Route the cheaper direction per the same cost model the search uses.
	if c.heur.dirCost(q1, q0) < c.heur.dirCost(q0, q1) {
		q0, q1 = q1, q0
	}
	target := c.place.Where(q1).Trap
	if err := c.em.RouteToTrap(q0, target, q1); err != nil {
		return err
	}
	c.lastTouch[q0] = c.iter
	c.lastTouch[q1] = c.iter
	c.haveLast = false
	return nil
}
