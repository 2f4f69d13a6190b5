package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ssync/internal/auth"
	"ssync/internal/circuit"
	"ssync/internal/cluster"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/mapping"
	"ssync/internal/pass"
	"ssync/internal/qasm"
	"ssync/internal/sched"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// The traced replay runs a workload's requests in this process, on one
// goroutine, the way a replica runs them: decode the body, build or
// parse the circuit, build the topology, key the request, Engine.Do on
// an engine opened with the replica's options, and score the schedule,
// all through public functions, with one span per call recorded here.
// Pass spans come from wrapper passes registered beside the built-in
// ones: a wrapper forwards Name, Signature and ConfigUse, so cache keys
// and stage reuse are exactly those of the unwrapped pipeline.

// tracedPrefix names each built-in pass's tracing wrapper in the pass
// registry.
const tracedPrefix = "fleetbench-traced/"

// builtinPasses are the passes the replay wraps.
var builtinPasses = []string{
	pass.DecomposeBasis, pass.PlaceGreedy, pass.PlaceAnnealed,
	pass.RouteSSync, pass.RouteMurali, pass.RouteDai, pass.VerifyStatevec,
}

// replaySpans are the spans a replayed request records, each with the
// per-layer metric its mean self time per request feeds. The request
// span's own self time is the glue between the layers.
var replaySpans = []struct{ Span, Metric string }{
	{"replay.request", "replay.other.ms"},
	{"edge.decode", "edge.decode.ms"},
	{"auth.admit", "auth.admit.ms"},
	{"qasm.parse", "qasm.parse.ms"},
	{"workloads.build", "workloads.build.ms"},
	{"device.topology", "device.topology.ms"},
	{"engine.key", "engine.key.ms"},
	{"engine.do", "engine.do.self_ms"},
	{"sim.score", "sim.score.ms"},
	{"pass.decompose-basis", "pass.decompose-basis.ms"},
	{"pass.place-greedy", "pass.place-greedy.ms"},
	{"pass.place-annealed", "pass.place-annealed.ms"},
	{"pass.route-ssync", "pass.route-ssync.ms"},
	{"pass.route-murali", "pass.route-murali.ms"},
	{"pass.route-dai", "pass.route-dai.ms"},
	{"pass.verify-statevec", "pass.verify-statevec.ms"},
}

// replayBudget and replayMax bound the traced replay's wall time and
// request count; the untraced replay then runs the same requests. The
// count bound keeps the replay's disk tiers, which a run deletes before
// it ends, to a few hundred files.
const (
	replayBudget = 6 * time.Second
	replayMax    = 400
)

// registerTracedPasses adds a tracing wrapper for every built-in pass.
func registerTracedPasses() error {
	for _, name := range builtinPasses {
		if pass.Registered(tracedPrefix + name) {
			continue
		}
		err := pass.Register(tracedPrefix+name, func(options json.RawMessage) (pass.Pass, error) {
			inner, err := pass.Build([]pass.Spec{{Name: name, Options: options}})
			if err != nil {
				return nil, err
			}
			return tracedPass{inner: inner[0]}, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedPass records a pass.<name> span around a built-in pass.
type tracedPass struct{ inner pass.Pass }

func (p tracedPass) Name() string              { return p.inner.Name() }
func (p tracedPass) Signature() string         { return pass.Signature(p.inner) }
func (p tracedPass) ConfigUse() pass.ConfigUse { return pass.UseOf(p.inner) }

func (p tracedPass) Run(ctx context.Context, st *pass.State) error {
	t := tracerFrom(ctx)
	id := t.begin("pass." + p.inner.Name())
	err := p.inner.Run(ctx, st)
	t.end(id)
	return err
}

type tracerKey struct{}

// withTracer hands t to the wrapper passes Engine.Do runs.
func withTracer(ctx context.Context, t *tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

func tracerFrom(ctx context.Context) *tracer {
	t, _ := ctx.Value(tracerKey{}).(*tracer)
	return t
}

// replicaTimeout is ssyncd's default per-request compile timeout.
const replicaTimeout = time.Minute

// replicaOptions are the engine options a replica of spec runs with:
// ssyncd's defaults plus the spec's flags, with any disk tier in dir.
func replicaOptions(spec fleetSpec, nproc int, dir string) engine.Options {
	opt := engine.Options{
		CacheSize:      spec.ResultCache,
		StageCacheSize: engine.DefaultStageCacheSize,
		Workers:        spec.workers(nproc),
	}
	if spec.StageCache > 0 {
		opt.StageCacheSize = spec.StageCache
	}
	if spec.SharedDisk {
		opt.CacheDir, opt.SharedCache = dir, true
	}
	return opt
}

// newReplayers opens one replayer per replica of spec, all on one disk
// tier in dir where the fleet's replicas share one.
func newReplayers(spec fleetSpec, nproc int, dir string, keys *keyFile, verifySeed int64) ([]*replayer, error) {
	out := make([]*replayer, spec.Replicas)
	for i := range out {
		var err error
		if out[i], err = newReplayer(replicaOptions(spec, nproc, dir), keys, verifySeed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// routes returns the replica each request goes to, as the fleet's router
// picks it: a cluster.Router over the measured fleet's replica URLs, keyed
// as ssyncd's router keys (a compile by its engine key, a batch by its
// body), forwards each request to a transport that records the replica
// and answers in its place.
func routes(urls []string, reqs []*request) ([]int, error) {
	out := make([]int, len(reqs))
	if len(urls) < 2 {
		return out, nil
	}
	pt := &pickTransport{replica: map[string]int{}}
	for i, u := range urls {
		pt.replica[strings.TrimPrefix(u, "http://")] = i
	}
	router, err := cluster.New(cluster.Options{Replicas: urls, KeyFn: routeKey, Transport: pt, HealthInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	defer router.Close()
	for i, r := range reqs {
		pt.set(-1)
		w := httptest.NewRecorder()
		router.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body)))
		if w.Code != http.StatusOK || pt.get() < 0 {
			return nil, fmt.Errorf("routing request %d: status %d", i, w.Code)
		}
		out[i] = pt.get()
	}
	return out, nil
}

// routeKey keys a request as ssyncd's router does: a /v2/compile by its
// engine key, anything else by its body.
func routeKey(method, path string, body []byte) (cluster.Key, bool) {
	var w wireRequest
	if method != http.MethodPost || path != compilePath || json.Unmarshal(body, &w) != nil {
		return cluster.Key{}, false
	}
	var c *circuit.Circuit
	var err error
	if w.Benchmark != "" {
		c, err = workloads.Build(w.Benchmark)
	} else {
		c, err = qasm.Parse(w.QASM)
	}
	if err != nil {
		return cluster.Key{}, false
	}
	topo, err := buildTopology(w)
	if err != nil {
		return cluster.Key{}, false
	}
	specs, err := tracedPipeline(w)
	if err != nil {
		return cluster.Key{}, false
	}
	cfg, ann, err := wireConfigs(w)
	if err != nil {
		return cluster.Key{}, false
	}
	k, err := engine.RequestKey(engine.Request{Circuit: c, Topo: topo, Pipeline: specs, Config: cfg, Anneal: ann})
	return cluster.Key(k), err == nil
}

// pickTransport stands in for the replicas behind routes' router: it
// records which replica a forwarded request went to and answers 200,
// health probes included.
type pickTransport struct {
	mu      sync.Mutex
	replica map[string]int // host:port → replica index
	picked  int
}

func (p *pickTransport) set(i int) {
	p.mu.Lock()
	p.picked = i
	p.mu.Unlock()
}

func (p *pickTransport) get() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.picked
}

func (p *pickTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	if req.Method == http.MethodPost {
		i, ok := p.replica[req.URL.Host]
		if !ok {
			return nil, fmt.Errorf("no replica at %s", req.URL.Host)
		}
		p.set(i)
	}
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader("{}")), Request: req,
	}, nil
}

// replayer stands in for one replica during a replay.
type replayer struct {
	eng    *engine.Engine
	authn  *auth.Authenticator // nil on fleets without access control
	quota  *auth.Enforcer
	apiKey string
	// verifySeed, when non-zero, replaces the verify-statevec witness
	// seed, so a second replay in this process cannot reuse the verify
	// references the first one simulated.
	verifySeed int64
	// scores is the replica's per-key scoring cache: a cached result is
	// not simulated again.
	scores    map[engine.Key]sim.Metrics
	qasmBytes int
	// entries counts the entries compiled; diskHits those the disk result
	// tier served.
	entries, diskHits int
}

func newReplayer(opt engine.Options, keys *keyFile, verifySeed int64) (*replayer, error) {
	eng, err := engine.Open(opt)
	if err != nil {
		return nil, err
	}
	r := &replayer{eng: eng, verifySeed: verifySeed, scores: map[engine.Key]sim.Metrics{}}
	if keys != nil {
		if r.authn, err = auth.NewAuthenticator(auth.Config{KeysFile: keys.path}); err != nil {
			return nil, err
		}
		r.quota, r.apiKey = auth.NewEnforcer(), keys.key
	}
	return r, nil
}

// serve runs one request under a replay.request span and returns one
// answer per entry.
func (r *replayer) serve(ctx context.Context, t *tracer, req *request) ([]entryResult, error) {
	root := t.begin("replay.request")
	defer t.end(root)
	if r.authn != nil {
		id := t.begin("auth.admit")
		p, err := r.authn.Authenticate(r.apiKey)
		var g *auth.Grant
		if err == nil {
			g, err = r.quota.Admit(p)
		}
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("auth: %w", err)
		}
		defer func() {
			id := t.begin("auth.admit")
			g.Release()
			t.end(id)
		}()
	}
	id := t.begin("edge.decode")
	entries, class, err := decodeBody(req)
	t.end(id)
	if err != nil {
		return nil, err
	}
	out := make([]entryResult, len(entries))
	for i, w := range entries {
		if out[i], err = r.compile(ctx, t, w, class); err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return out, nil
}

// decodeBody decodes a request body as ssyncd's handler does and returns
// its entries with their default priority class.
func decodeBody(req *request) ([]wireRequest, sched.Class, error) {
	if req.Path == batchPath {
		var b batchWire
		err := json.Unmarshal(req.Body, &b)
		return b.Requests, sched.Batch, err
	}
	var w wireRequest
	err := json.Unmarshal(req.Body, &w)
	return []wireRequest{w}, sched.Interactive, err
}

// compile runs one entry: circuit and topology under a worker slot as
// the replica builds them, the key, Engine.Do with the tracer in the
// context, and scoring unless the key was scored before.
func (r *replayer) compile(ctx context.Context, t *tracer, w wireRequest, class sched.Class) (entryResult, error) {
	var c *circuit.Circuit
	var topo *device.Topology
	err := r.eng.LimitAs(ctx, class, func() error {
		var err error
		if w.Benchmark != "" {
			id := t.begin("workloads.build")
			c, err = workloads.Build(w.Benchmark)
			t.end(id)
		} else {
			id := t.begin("qasm.parse")
			c, err = qasm.Parse(w.QASM)
			t.end(id)
			r.qasmBytes += len(w.QASM)
		}
		if err != nil {
			return err
		}
		id := t.begin("device.topology")
		topo, err = buildTopology(w)
		t.end(id)
		return err
	})
	if err != nil {
		return entryResult{}, err
	}
	req, err := r.engineRequest(w, c, topo, class)
	if err != nil {
		return entryResult{}, err
	}
	id := t.begin("engine.key")
	key, err := engine.RequestKey(req)
	t.end(id)
	if err != nil {
		return entryResult{}, err
	}
	id = t.begin("engine.do")
	res := r.eng.Do(withTracer(ctx, t), req)
	t.end(id)
	if res.Err != nil {
		return entryResult{}, res.Err
	}
	r.entries++
	if res.CacheTier == "disk" {
		r.diskHits++
	}
	m, ok := r.scores[res.Key]
	if !ok {
		id = t.begin("sim.score")
		m = sim.Run(res.Result.Schedule, topo, sim.DefaultOptions())
		t.end(id)
		r.scores[res.Key] = m
	}
	return entryResult{
		Key: key.String(), Shuttles: res.Result.Counts.Shuttles, Swaps: res.Result.Counts.Swaps,
		SuccessRate: m.SuccessRate, ExecTimeUs: m.ExecutionTime,
	}, nil
}

// engineRequest resolves an entry's strategy as ssyncd does: the explicit
// pipeline or its compiler's canned one, every stage through its tracing
// wrapper, and the mapping and anneal-seed overrides.
func (r *replayer) engineRequest(w wireRequest, c *circuit.Circuit, topo *device.Topology, class sched.Class) (engine.Request, error) {
	specs, err := tracedPipeline(w)
	if err != nil {
		return engine.Request{}, err
	}
	if r.verifySeed != 0 {
		for i := range specs {
			if specs[i].Name == tracedPrefix+pass.VerifyStatevec {
				specs[i].Options = json.RawMessage(fmt.Sprintf(`{"seed":%d}`, r.verifySeed))
			}
		}
	}
	cfg, ann, err := wireConfigs(w)
	if err != nil {
		return engine.Request{}, err
	}
	return engine.Request{
		Label: w.Label, Circuit: c, Topo: topo, Pipeline: specs,
		Config: cfg, Anneal: ann, Timeout: replicaTimeout, Priority: class,
	}, nil
}

// tracedPipeline is an entry's pipeline with every stage addressed
// through its tracing wrapper.
func tracedPipeline(w wireRequest) ([]pass.Spec, error) {
	var specs []pass.Spec
	if len(w.Pipeline) > 0 {
		for _, s := range w.Pipeline {
			specs = append(specs, pass.Spec{Name: s.Name, Options: s.Options})
		}
	} else {
		name := w.Compiler
		if name == "" {
			name = engine.CompilerSSync
		}
		canned, ok := pass.BuiltinPipeline(name)
		if !ok {
			return nil, fmt.Errorf("compiler %q is not a canned pipeline", name)
		}
		specs = canned
	}
	for i := range specs {
		specs[i].Name = tracedPrefix + specs[i].Name
	}
	return specs, nil
}

// wireConfigs folds an entry's mapping and anneal-seed overrides into
// configurations, as ssyncd's request resolution does.
func wireConfigs(w wireRequest) (*core.Config, *mapping.AnnealConfig, error) {
	var cfg *core.Config
	if w.Mapping != "" {
		strat, err := mapping.ParseStrategy(w.Mapping)
		if err != nil {
			return nil, nil, err
		}
		c := core.DefaultConfig()
		c.Mapping.Strategy = strat
		cfg = &c
	}
	var ann *mapping.AnnealConfig
	if w.AnnealSeed != nil {
		a := mapping.DefaultAnnealConfig()
		a.Seed = *w.AnnealSeed
		ann = &a
	}
	return cfg, ann, nil
}

// buildTopology builds an entry's device, at the paper's per-trap
// capacity when the entry names none.
func buildTopology(w wireRequest) (*device.Topology, error) {
	capacity := w.Capacity
	if capacity == 0 {
		capacity = device.PaperCapacity(w.Topology)
	}
	return device.ByName(w.Topology, capacity)
}

// replayRun is one paired replay over a prefix of a workload's
// answered requests.
type replayRun struct {
	idx     []int           // measured-list index of each replayed request
	answers [][]entryResult // the traced replay's answers, index-aligned with idx
	// traced and plain are the two replays' total wall times over the
	// same requests.
	traced, plain time.Duration
	// self sums the traced replay's self time per span name.
	self map[string]time.Duration
	// residual is the largest gap between a traced request's summed self
	// times and its wall time.
	residual time.Duration
	parsed   int // QASM bytes the traced replay parsed
	// entries and diskHits count the traced replay's entries and the
	// disk result-tier hits among them.
	entries, diskHits int
}

// replay serves warm untimed on both sets of replayers, then each request
// at idx in order on both, with spans on traced only, until the traced
// replay has spent budget or served replayMax requests. The two alternate
// which goes first, so neither gains from the other warming caches.
// warmTo and to name the replica each warm-up and measured request goes
// to.
func replay(ctx context.Context, traced, plain []*replayer, warm, reqs []*request, warmTo, to, idx []int, budget time.Duration) (*replayRun, error) {
	for i, w := range warm {
		for _, rs := range [][]*replayer{traced, plain} {
			if _, err := rs[warmTo[i]].serve(ctx, nil, w); err != nil {
				return nil, fmt.Errorf("warm-up request %d: %w", i, err)
			}
		}
	}
	sum := func(f func(*replayer) int) int {
		n := 0
		for _, r := range traced {
			n += f(r)
		}
		return n
	}
	parsed := sum(func(r *replayer) int { return r.qasmBytes })
	entries := sum(func(r *replayer) int { return r.entries })
	diskHits := sum(func(r *replayer) int { return r.diskHits })
	run := &replayRun{self: map[string]time.Duration{}}
	t := newTracer()
	for k, i := range idx {
		if run.traced >= budget || k == replayMax {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var ans []entryResult
		for pass := range 2 {
			if (pass+k)%2 == 0 {
				t.reset()
				start := time.Now()
				var err error
				if ans, err = traced[to[i]].serve(ctx, t, reqs[i]); err != nil {
					return nil, fmt.Errorf("request %d: %w", i, err)
				}
				run.traced += time.Since(start)
				continue
			}
			start := time.Now()
			if _, err := plain[to[i]].serve(ctx, nil, reqs[i]); err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			run.plain += time.Since(start)
		}
		run.idx = append(run.idx, i)
		run.answers = append(run.answers, ans)
		var total time.Duration
		for name, d := range selfTimes(t.spans) {
			run.self[name] += d
			total += d
		}
		gap := total - rootTime(t.spans)
		run.residual = max(run.residual, gap, -gap)
	}
	run.parsed = sum(func(r *replayer) int { return r.qasmBytes }) - parsed
	run.entries = sum(func(r *replayer) int { return r.entries }) - entries
	run.diskHits = sum(func(r *replayer) int { return r.diskHits }) - diskHits
	return run, nil
}

// replayLayers replays the requests the fleet answered, each on the
// replica the fleet's router sent it to, checks the traced replay's
// answers against the fleet's, and records the replay's per-layer
// metrics and tracing overhead. urls are the fleet's replica URLs and
// shardRequests the requests its router sent each in the measured phase
// (nil without a router).
func replayLayers(ctx context.Context, rep *report, wl workload, nproc int, p *plan, outs []*outcome, failed map[int]bool, dir string, keys *keyFile, urls []string, shardRequests []float64) error {
	var idx []int
	fleetEntries := 0
	for i, o := range outs {
		if o != nil && !failed[i] {
			idx = append(idx, i)
			fleetEntries += len(o.Entries)
		}
	}
	warmTo, err := routes(urls, p.Warm)
	if err != nil {
		return err
	}
	to, err := routes(urls, p.Reqs)
	if err != nil {
		return err
	}
	if shardRequests != nil {
		routed := make([]float64, len(urls))
		for _, i := range idx {
			routed[to[i]]++
		}
		rep.note("requests per replica: %v routed by the replay, %v by the fleet's router", routed, shardRequests)
	}
	traced, err := newReplayers(wl.Fleet, nproc, filepath.Join(dir, "replay-traced"), keys, 0)
	if err != nil {
		return err
	}
	plain, err := newReplayers(wl.Fleet, nproc, filepath.Join(dir, "replay-plain"), keys, 1)
	if err != nil {
		return err
	}
	run, err := replay(ctx, traced, plain, p.Warm, p.Reqs, warmTo, to, idx, replayBudget)
	if err != nil {
		return err
	}
	if len(run.idx) == 0 {
		return fmt.Errorf("the fleet answered no request to replay")
	}
	for k, i := range run.idx {
		if !slices.Equal(run.answers[k], outs[i].Entries) {
			failed[i] = true
			rep.problem("request %d: the replay compiled %+v, the fleet answered %+v", i, run.answers[k], outs[i].Entries)
		}
	}

	n := float64(len(run.idx))
	for _, s := range replaySpans {
		rep.layer(s.Metric, ms(run.self[s.Span])/n)
	}
	mbps := 0.0
	if sec := run.self["qasm.parse"].Seconds(); sec > 0 {
		mbps = float64(run.parsed) / 1e6 / sec
	}
	rep.layer("qasm.parse.mb_per_s", mbps)
	rep.layer("harness.trace_overhead_pct", 100*(run.traced.Seconds()-run.plain.Seconds())/run.plain.Seconds())
	rep.layer("harness.replay_requests", n)
	if run.residual > time.Microsecond {
		rep.problem("a replayed request's self times miss its wall time by %s", run.residual)
	}
	rep.note("replay: %d requests, %.3f s traced, %.3f s untraced; self times sum to each request's wall time (largest gap %s)",
		len(run.idx), run.traced.Seconds(), run.plain.Seconds(), run.residual)
	if wl.Fleet.SharedDisk {
		rep.note("disk result-tier hits: %.1f%% of the replay's %d entries, %.1f%% of the fleet's %d (store.results.disk_hits)",
			100*float64(run.diskHits)/float64(max(1, run.entries)), run.entries,
			100*rep.layers["store.results.disk_hits"].value/float64(max(1, fleetEntries)), fleetEntries)
	}
	rep.note("%s", leadingNote(wl, run.self, run.traced))
	return nil
}

// leadingNote ranks the replay's layers by self time and says whether the
// expected ones lead, as they did in profiles of the seed program.
func leadingNote(wl workload, self map[string]time.Duration, wall time.Duration) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	var expected time.Duration
	for _, n := range wl.Leading {
		expected += self[n]
	}
	verdict := "matches"
	for _, n := range names {
		if !slices.Contains(wl.Leading, n) && self[n] > expected {
			verdict = "DIFFERS from"
		}
	}
	var top []string
	for _, n := range names[:min(4, len(names))] {
		top = append(top, fmt.Sprintf("%s %.1f%%", n, 100*self[n].Seconds()/wall.Seconds()))
	}
	return fmt.Sprintf("leading layers by self time: %s; expected lead %s %s the seed measurements",
		strings.Join(top, ", "), strings.Join(wl.Leading, " + "), verdict)
}
