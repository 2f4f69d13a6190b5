package ssync

import (
	"context"
	"fmt"
	"testing"

	"ssync/internal/engine"
	"ssync/internal/exp"
)

// One benchmark per paper table/figure. Each regenerates its experiment
// through the same code paths as `cmd/experiments`; benches default to the
// quick grid so `go test -bench=.` stays tractable — run
// `cmd/experiments -run figN` (no -quick) for the full paper-scale rows.

var quickOpt = exp.Options{Quick: true}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(name, quickOpt); err != nil {
			b.Fatal(err)
		}
		// The comparison grid memoises per scale; clear it so each
		// iteration measures real work.
		exp.ResetCaches()
	}
}

func BenchmarkTable1OperationTimes(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2Benchmarks(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkFig8Shuttles(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9Swaps(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10SuccessRate(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11Topology(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12Mapping(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13GateImpl(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14Sensitivity(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15CompileTime(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16Optimality(b *testing.B)      { benchExperiment(b, "fig16") }

// Component micro-benchmarks: the compiler and simulator hot paths.

// compileDirect is the uncached compile the micro-benchmarks time: the
// registry dispatch behind Do, without the engine's result cache.
func compileDirect(b *testing.B, compiler string, c *Circuit, topo *Topology) *CompileResult {
	b.Helper()
	res, err := engine.Direct(engine.Request{Circuit: c, Topo: topo, Compiler: compiler})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkCompileQFT24G2x3(b *testing.B) {
	c := QFT(24)
	topo := GridDevice(2, 3, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileDirect(b, SSyncCompilerName, c, topo)
	}
}

func BenchmarkCompileAdder32L4(b *testing.B) {
	c := Adder(32)
	topo := topology(b, "L-4", 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileDirect(b, SSyncCompilerName, c, topo)
	}
}

func BenchmarkCompileMuraliQFT24(b *testing.B) {
	c := QFT(24)
	topo := GridDevice(2, 3, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileDirect(b, MuraliCompilerName, c, topo)
	}
}

func BenchmarkSimulateQFT24(b *testing.B) {
	c := QFT(24)
	topo := GridDevice(2, 3, 17)
	res := compileDirect(b, SSyncCompilerName, c, topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(res.Schedule, topo, DefaultSimOptions())
	}
}

func BenchmarkStateVectorQFT12(b *testing.B) {
	c := QFT(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := compileDirect(b, SSyncCompilerName, c, GridDevice(2, 2, 6))
		if err := VerifySchedule(c, res.Schedule, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkBatchCompile measures the engine's worker-pool batch compiler
// on the quick workload×topology×compiler grid against the serial loop.
// Caching is disabled so both sides measure real compilation; compare
// serial vs workers-N ns/op for the pool speedup, and cached for the
// steady-state service path.
func BenchmarkBatchCompile(b *testing.B) {
	var reqs []engine.Request
	for _, bench := range []string{"QFT_12", "Adder_4", "BV_12"} {
		c, err := Benchmark(bench)
		if err != nil {
			b.Fatal(err)
		}
		for _, topo := range []*Topology{topology(b, "S-4", 8), GridDevice(2, 2, 8)} {
			for _, comp := range []string{MuraliCompilerName, DaiCompilerName, SSyncCompilerName} {
				reqs = append(reqs, engine.Request{Circuit: c, Topo: topo, Compiler: comp})
			}
		}
	}
	ctx := context.Background()

	b.Run("serial", func(b *testing.B) {
		eng := engine.New(engine.Options{CacheSize: -1})
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if r := eng.Do(ctx, req); r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			pool := engine.Pool{Engine: engine.New(engine.Options{CacheSize: -1}), Workers: workers}
			for i := 0; i < b.N; i++ {
				if err := engine.FirstError(pool.RunRequests(ctx, reqs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("cached", func(b *testing.B) {
		pool := engine.Pool{Engine: engine.New(engine.Options{}), Workers: 4}
		if err := engine.FirstError(pool.RunRequests(ctx, reqs)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := engine.FirstError(pool.RunRequests(ctx, reqs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStagePrefixReuse measures the tiered artifact store on the
// portfolio-shaped workload it exists for: one circuit compiled through
// the three route variants, which share a decompose→place-annealed
// prefix (the annealed placement is the expensive stage worth reusing).
// The "no-stage-cache" case pays decompose+anneal three times;
// "stage-cache" pays it once and resumes the other two variants from the
// in-memory snapshot (asserted via the per-stage hit counters). The disk
// pair measures the persistent result tier: "disk-cold" compiles into
// an empty directory (writing one result blob per variant), "disk-warm"
// restarts an engine over a warmed directory and is served entirely
// from result blobs.
func BenchmarkStagePrefixReuse(b *testing.B) {
	c := QFT(12)
	topo := GridDevice(2, 2, 8)
	pipelines := func() []CompileRequest {
		var reqs []CompileRequest
		for _, route := range []string{RouteSSyncPass, RouteMuraliPass, RouteDaiPass} {
			reqs = append(reqs, CompileRequest{
				Label: route, Circuit: c, Topo: topo,
				Pipeline: []PassSpec{{Name: DecomposeBasisPass}, {Name: PlaceAnnealedPass}, {Name: route}},
			})
		}
		return reqs
	}
	ctx := context.Background()
	compileAll := func(b *testing.B, eng *Engine) {
		b.Helper()
		for _, req := range pipelines() {
			if resp := eng.Do(ctx, req); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}

	// The correctness claim behind the benchmark, checked once up front:
	// with the stage cache on, decompose-basis and place-annealed execute
	// exactly once across the three route variants.
	check := NewEngine(EngineOptions{StageCacheSize: 64})
	compileAll(b, check)
	for _, stage := range []string{DecomposeBasisPass, PlaceAnnealedPass} {
		ps := check.Stats().Passes[stage]
		if ps.Runs != 1 || ps.CacheHits != 2 {
			b.Fatalf("%s: runs=%d cache hits=%d, want 1 run and 2 hits across three route variants",
				stage, ps.Runs, ps.CacheHits)
		}
	}

	b.Run("no-stage-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compileAll(b, NewEngine(EngineOptions{}))
		}
	})
	b.Run("stage-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compileAll(b, NewEngine(EngineOptions{StageCacheSize: 64}))
		}
	})
	b.Run("disk-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			eng, err := OpenEngine(EngineOptions{StageCacheSize: 64, CacheDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			compileAll(b, eng)
		}
	})
	b.Run("disk-warm", func(b *testing.B) {
		dir := b.TempDir()
		warmup, err := OpenEngine(EngineOptions{StageCacheSize: 64, CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		compileAll(b, warmup)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh engine per iteration models a restarted service: the
			// in-memory tiers start empty and every request is served by
			// decoding disk blobs, never by running a pass.
			eng, err := OpenEngine(EngineOptions{StageCacheSize: 64, CacheDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			compileAll(b, eng)
			if st := eng.Stats(); st.Compiled != 0 {
				b.Fatalf("warm disk tier compiled %d requests, want 0", st.Compiled)
			}
		}
	})
}
