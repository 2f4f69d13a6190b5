// Custom pipeline: compose a compilation from registered passes instead
// of writing a whole compiler. The example registers one custom pass —
// "optimize-peephole", a semantics-preserving circuit simplifier run
// between decomposition and placement — then compiles through an
// explicit pipeline that also swaps the placer and appends state-vector
// verification. It finishes by showing that a built-in compiler name and
// its canned pipeline are literally the same request: identical cache
// keys, shared cache entries.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"ssync"
)

// peepholePass is an ordinary value implementing ssync.Pass: it rewrites
// the working circuit in place of the pipeline state. Stateless flat
// structs like this get deterministic cache-key signatures for free.
type peepholePass struct{}

func (peepholePass) Name() string { return "optimize-peephole" }

func (peepholePass) Run(ctx context.Context, st *ssync.PassState) error {
	st.Circuit = ssync.Optimize(st.Circuit)
	return nil
}

func main() {
	// A pass factory decodes the stage's options JSON; this pass takes
	// none. Registered names are process-wide, addressable from every
	// CompileRequest.Pipeline — and from ssyncd's /v2 endpoints, had this
	// been the daemon.
	err := ssync.RegisterPass("optimize-peephole",
		func(options json.RawMessage) (ssync.Pass, error) { return peepholePass{}, nil })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered passes:", ssync.Passes())

	c := ssync.QFT(16)
	topo := ssync.GridDevice(2, 2, 8)
	ctx := context.Background()

	// Compose the stages explicitly: decompose, simplify, place with the
	// STA strategy, route, and prove the schedule correct — a scenario no
	// single canned compiler offers.
	pipeline := []ssync.PassSpec{
		{Name: ssync.DecomposeBasisPass},
		{Name: "optimize-peephole"},
		{Name: ssync.PlaceGreedyPass, Options: json.RawMessage(`{"mapping":"sta"}`)},
		{Name: ssync.RouteSSyncPass},
		{Name: ssync.VerifyStatevecPass, Options: json.RawMessage(`{"seed":1}`)},
	}
	resp := ssync.Do(ctx, ssync.CompileRequest{Circuit: c, Topo: topo, Pipeline: pipeline})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	fmt.Printf("custom pipeline: %d shuttles, %d swaps, verified (key %.12s…)\n",
		resp.Result.Counts.Shuttles, resp.Result.Counts.Swaps, resp.Key)
	for _, pt := range resp.Result.PassTimings {
		fmt.Printf("  %-18s %8.3f ms  gate delta %+d\n",
			pt.Pass, float64(pt.Duration.Microseconds())/1000, pt.GateDelta)
	}

	// A built-in compiler name is just a canned pipeline: spelling it out
	// produces the same cache key, so the explicit form is served from
	// the named form's cache entry (and vice versa).
	named := ssync.Do(ctx, ssync.CompileRequest{Circuit: c, Topo: topo, Compiler: ssync.SSyncCompilerName})
	if named.Err != nil {
		log.Fatal(named.Err)
	}
	canned, _ := ssync.BuiltinPipeline(ssync.SSyncCompilerName)
	explicit := ssync.Do(ctx, ssync.CompileRequest{Circuit: c, Topo: topo, Pipeline: canned})
	if explicit.Err != nil {
		log.Fatal(explicit.Err)
	}
	fmt.Printf("canned vs explicit ssync: keys equal=%v, explicit served from cache=%v\n",
		named.Key == explicit.Key, explicit.CacheHit)
}
