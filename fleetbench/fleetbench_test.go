package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ssync/internal/circuit"
	"ssync/internal/engine"
	"ssync/internal/pass"
	"ssync/internal/qasm"
	"ssync/internal/workloads"
)

// planDigest hashes everything a plan sends: paths, bodies and schedule.
func planDigest(p *plan) [sha256.Size]byte {
	h := sha256.New()
	for _, list := range [][]*request{p.Warm, p.Reqs} {
		fmt.Fprintf(h, "list %d\n", len(list))
		for _, r := range list {
			fmt.Fprintf(h, "%s %d %d %s %t\n", r.Path, r.At, len(r.Body), r.Kind, r.Quality)
			h.Write(r.Body)
		}
	}
	fmt.Fprintf(h, "rate %v", p.Rate)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range workloadList {
		a, err := wl.Gen(7, 2)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		b, err := wl.Gen(7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if planDigest(a) != planDigest(b) {
			t.Errorf("%s: seed 7 generated two different request lists", wl.Name)
		}
		c, err := wl.Gen(8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if planDigest(a) == planDigest(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", wl.Name)
		}
		// The bytes sent are exactly the entries the checks and the replay use.
		for i, r := range append(a.Warm, a.Reqs...) {
			entries, _, err := decodeBody(r)
			if err != nil || !reflect.DeepEqual(entries, r.Entries) {
				t.Fatalf("%s: request %d body decodes to %+v (err %v), not its entries", wl.Name, i, entries, err)
			}
		}
	}
}

func TestSweepColdKeysDistinct(t *testing.T) {
	p, err := genSweepCold(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(append([]*request(nil), p.Warm...), p.Reqs...)
	// engine.RequestKey, as the replica keys them, tells every request
	// apart: warm-up, grid, the quick point, and draws across rounds.
	circuits := map[string]*circuit.Circuit{}
	keys := map[engine.Key]int{}
	for i, r := range reqs {
		w := r.Entries[0]
		c := circuits[w.Benchmark]
		if c == nil {
			if c, err = workloads.Build(w.Benchmark); err != nil {
				t.Fatal(err)
			}
			circuits[w.Benchmark] = c
		}
		topo, err := buildTopology(w)
		if err != nil {
			t.Fatal(err)
		}
		cfg, ann, err := wireConfigs(w)
		if err != nil {
			t.Fatal(err)
		}
		k, err := engine.RequestKey(engine.Request{Circuit: c, Topo: topo, Compiler: w.Compiler, Config: cfg, Anneal: ann})
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := keys[k]; dup {
			t.Fatalf("requests %d and %d share key %s", j, i, k)
		}
		keys[k] = i
	}
}

// The sweep draws are internal/exp's Fig. 11 and Fig. 12 points, the
// first round under ssync holding each point once.
func TestSweepColdDrawsPaperSpace(t *testing.T) {
	space, err := sweepSpace()
	if err != nil {
		t.Fatal(err)
	}
	// 4 apps x 7 topologies x 5 totals and 10 Fig. 12 circuits, each under
	// 3 mappings, less the 3 grid cells (G-3x3 at 12 per trap, gathering).
	if want := (4*7*5+10)*3 - 3; len(space) != want {
		t.Errorf("sweep space holds %d points, want %d", len(space), want)
	}
	for i, size := range []int{50, 60, 70, 80, 90} {
		for j, fam := range []string{"adder", "qft"} {
			want, err := workloads.BySize(fam, size)
			if err != nil {
				t.Fatal(err)
			}
			got, err := workloads.Build(fig12.Apps[j*5+i])
			if err != nil || got.NumQubits != want.NumQubits {
				t.Errorf("%s builds %v (err %v), Fig. 12's %s at %d qubits has %d", fig12.Apps[j*5+i], got, err, fam, size, want.NumQubits)
			}
		}
	}
	p, err := genSweepCold(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	inSpace := map[sweepPoint]int{}
	for _, s := range space {
		inSpace[s] = 0
	}
	draws := 0
	for _, r := range p.Reqs {
		if r.Kind != "sweep" {
			continue
		}
		w := r.Entries[0]
		s := sweepPoint{App: w.Benchmark, Topo: w.Topology, Mapping: w.Mapping, Capacity: w.Capacity}
		n, ok := inSpace[s]
		if !ok {
			t.Fatalf("draw %+v is not a Fig. 11/12 point", s)
		}
		if first := draws < len(space); first != (w.Compiler == engine.CompilerSSync && w.AnnealSeed == nil) {
			t.Fatalf("draw %d compiles under %s (anneal seed %v)", draws, w.Compiler, w.AnnealSeed)
		}
		if draws < len(space) && n > 0 {
			t.Fatalf("the first round draws %+v twice", s)
		}
		inSpace[s] = n + 1
		draws++
	}
	if draws < 2*len(space) {
		t.Errorf("a 20-second list holds %d draws, fewer than two rounds", draws)
	}
}

func TestVerifyCircuitsUnitaryInRange(t *testing.T) {
	p, err := genVerify(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	parsed := map[string]bool{}
	for i, r := range p.Reqs {
		w := r.Entries[0]
		if n := len(w.Pipeline); n == 0 || w.Pipeline[n-1].Name != pass.VerifyStatevec {
			t.Fatalf("request %d does not end in %s", i, pass.VerifyStatevec)
		}
		if parsed[w.QASM] {
			continue
		}
		parsed[w.QASM] = true
		c, err := qasm.Parse(w.QASM)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if c.NumQubits < verifyMinQubits || c.NumQubits > verifyMaxQubits {
			t.Errorf("request %d: %d qubits, want %d to %d", i, c.NumQubits, verifyMinQubits, verifyMaxQubits)
		}
		for _, g := range c.Gates {
			if g.Name == "measure" || g.Name == "reset" || g.Cond != nil {
				t.Errorf("request %d: circuit is not unitary (%s)", i, g.Name)
				break
			}
		}
	}
	if len(parsed) < 50 {
		t.Errorf("only %d distinct verify circuits in a 3-second list", len(parsed))
	}
}

func TestSelfTimesPartitionSpanTree(t *testing.T) {
	spans := []span{
		{"request", -1, 0, 100},
		{"engine.do", 0, 10, 60},
		{"pass.x", 1, 20, 30},
		{"pass.x", 1, 35, 50},
		{"sim.score", 0, 70, 90},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"request": 30, "engine.do": 25, "pass.x": 25, "sim.score": 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// Overlapping children are merged and clipped to their parent.
	if got := selfTimes([]span{{"p", -1, 0, 10}, {"a", 0, 2, 8}, {"b", 0, 5, 12}})["p"]; got != 2 {
		t.Errorf("parent self time with overlapping children = %d, want 2", got)
	}
	// A tracer's nested begin/end pairs partition the request exactly.
	tr := newTracer()
	root := tr.begin("request")
	for range 3 {
		a := tr.begin("a")
		b := tr.begin("b")
		tr.end(b)
		tr.end(a)
	}
	tr.end(root)
	var sum time.Duration
	for name, d := range selfTimes(tr.spans) {
		if d < 0 {
			t.Errorf("span %s has negative self time %s", name, d)
		}
		sum += d
	}
	if sum != rootTime(tr.spans) {
		t.Errorf("self times sum to %s, the request took %s", sum, rootTime(tr.spans))
	}
}

func TestPercentileCarriesSampleCount(t *testing.T) {
	desc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if p := percentile(desc(1000), 0.99); p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.Supported {
		t.Errorf("p99 of 1..1000 = %+v", p)
	}
	if p := percentile(desc(999), 0.99); p.N != 999 || p.Beyond != 9 || p.Supported {
		t.Errorf("p99 of 1..999 = %+v, want 9 beyond and unsupported", p)
	}
	if p := percentile(desc(1000), 0.5); p.Value != 500 || p.N != 1000 || p.Beyond != 500 {
		t.Errorf("p50 of 1..1000 = %+v", p)
	}
	if p := percentile(nil, 0.99); p.N != 0 || p.Supported {
		t.Errorf("p99 of nothing = %+v", p)
	}
}

// Tracing wrappers must leave cache keys, and so stage reuse, unchanged.
func TestTracedPipelinesKeepKeys(t *testing.T) {
	if err := registerTracedPasses(); err != nil {
		t.Fatal(err)
	}
	c := workloads.QFT(8)
	w := wireRequest{Topology: "S-4", Capacity: 4}
	topo, err := buildTopology(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range gridCompilers {
		w.Compiler = comp
		plain, err := engine.RequestKey(engine.Request{Circuit: c, Topo: topo, Compiler: comp})
		if err != nil {
			t.Fatal(err)
		}
		specs, err := tracedPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := engine.RequestKey(engine.Request{Circuit: c, Topo: topo, Pipeline: specs})
		if err != nil {
			t.Fatal(err)
		}
		if plain != traced {
			t.Errorf("%s: traced pipeline keys %s, the compiler %s", comp, traced, plain)
		}
	}
}

// The harness runs BENCHMARK.json's workloads and reports exactly its
// per-layer metrics, and layers.json describes each of them.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	doc, err := loadDocs("..")
	if err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range workloadList {
		wls = append(wls, w.Name)
	}
	var listed []string
	for _, w := range doc.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, wls) {
		t.Errorf("BENCHMARK.json lists workloads %q, the harness runs %q", listed, wls)
	}
	var names []string
	for _, m := range doc.PerLayer {
		names = append(names, m.Name)
		if _, ok := doc.moves[m.Name]; !ok {
			t.Errorf("layers.json does not describe %s", m.Name)
		}
	}
	for name, moves := range doc.moves {
		for _, mv := range moves {
			if !slices.ContainsFunc(doc.EndToEnd, func(e metricSpec) bool { return e.Name == mv.Metric }) || !slices.Contains(wls, mv.Workload) {
				t.Errorf("%s moves unknown %s on %s", name, mv.Metric, mv.Workload)
			}
		}
	}
	if len(doc.moves) != len(names) {
		t.Errorf("layers.json describes %d metrics, BENCHMARK.json lists %d", len(doc.moves), len(names))
	}
	empty := &snapshot{replicas: []replicaScrape{{}}, cluster: &clusterStats{}}
	produced := []string{"harness.gen_lag_p99_ms", "core.shuttle_reduction_x", "core.success_gain_x",
		"qasm.parse.mb_per_s", "harness.trace_overhead_pct", "harness.replay_requests"}
	for name := range fleetLayers(empty, empty) {
		produced = append(produced, name)
	}
	for _, s := range replaySpans {
		produced = append(produced, s.Metric)
	}
	slices.Sort(produced)
	slices.Sort(names)
	if !slices.Equal(produced, names) {
		t.Errorf("the harness reports per-layer metrics %q, BENCHMARK.json lists %q", produced, names)
	}
}
