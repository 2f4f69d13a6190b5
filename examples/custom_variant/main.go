// Custom variant: tune the built-in S-SYNC compiler through its Config
// and serve the variant through the same CompileRequest API — caching,
// single-flight coalescing and portfolio racing included — without
// touching engine code. The example defines "sta-wide", an S-SYNC
// variant that pairs the STA first-level mapping with a widened
// lookahead window, demonstrates that concurrent identical requests
// coalesce into a single compilation, and races it against the default
// portfolio. (A strategy that is not a configuration of a built-in one
// is a pipeline of registered passes; see examples/custom_pipeline.)
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"ssync"
)

func main() {
	// A variant is the built-in compiler under its own configuration. The
	// configuration is part of the request's cache key, so sta-wide
	// results never alias plain ssync ones.
	staWide := ssync.DefaultCompileConfig()
	staWide.Mapping.Strategy = ssync.STAMapping
	staWide.LookaheadGates = 32 // double the default window

	c := ssync.QFT(16)
	topo := ssync.GridDevice(2, 2, 8)
	ctx := context.Background()
	req := ssync.CompileRequest{Circuit: c, Topo: topo, Config: &staWide}

	resp := ssync.Do(ctx, req)
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	fmt.Printf("sta-wide: %d shuttles, %d swaps (key %.12s…)\n",
		resp.Result.Counts.Shuttles, resp.Result.Counts.Swaps, resp.Key)

	// Concurrent identical requests share one compilation: the engine
	// coalesces them in flight, so only the first does the work.
	eng := ssync.NewEngine(ssync.EngineOptions{})
	var wg sync.WaitGroup
	responses := make([]ssync.CompileResponse, 8)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = eng.Do(ctx, req)
		}(i)
	}
	wg.Wait()
	coalesced, hits := 0, 0
	for _, r := range responses {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		if r.Coalesced {
			coalesced++
		}
		if r.CacheHit {
			hits++
		}
	}
	st := eng.Stats()
	fmt.Printf("8 concurrent identical requests: %d compiled, %d coalesced, %d cache hits\n",
		st.Compiled, coalesced, hits)

	// And it can join a portfolio race against the built-in entrants.
	variants := append(ssync.DefaultPortfolio(), ssync.PortfolioVariant{
		Name: "custom/sta-wide", Compiler: ssync.SSyncCompilerName, Config: &staWide,
	})
	out, err := ssync.CompilePortfolio(ctx, c, topo, variants)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("portfolio winner: %s (success %.3e)\n",
		out.Winner.Label, out.Metrics[out.WinnerIndex].SuccessRate)
}
