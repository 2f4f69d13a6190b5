// Command fleetbench is the end-to-end benchmark of the ssyncd compile
// service. It starts a real ssyncd fleet from a built binary, drives one
// seeded workload over /v2 HTTP from this single process with at most
// nproc connections, checks every answer, and prints every metric by
// name and unit. run.sh builds ssyncd and this program from the checkout
// and runs it from the checkout root:
//
//	bash fleetbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// The workloads are sweep-cold, verify and service-mix (workload.go);
// "all" runs each of them untraced, then traced. --trace 0 reports the
// end-to-end metrics. --trace 1 reports the per-layer metrics: the
// fleet's public counters diffed over the measured phase (counters.go)
// and an in-process, single-goroutine replay of the same requests that
// records one span per layer call (replay.go). The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the lines before it record the environment and a per-metric
// report. A run whose answers fail a check exits 1.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchDoc is what the harness reads from BENCHMARK.json at the checkout
// root: each workload's reason, and every metric's name, unit and
// direction in report order.
type benchDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
	// moves holds, from layers.json, the end-to-end metrics and workloads
	// each per-layer metric should move.
	moves map[string][]move
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

//go:embed layers.json
var layersJSON []byte

// layerDoc is layers.json, what BENCHMARK.json has no key for: the
// seeds claims cite, and each per-layer metric's source and the
// end-to-end metrics and workloads it should move.
type layerDoc struct {
	PerLayer []struct {
		Name  string `json:"name"`
		Moves []move `json:"moves"`
	} `json:"per_layer"`
}

type move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// loadDocs reads root's BENCHMARK.json and the embedded layers.json.
func loadDocs(root string) (*benchDoc, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var layers layerDoc
	if err := json.Unmarshal(layersJSON, &layers); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	doc.moves = map[string][]move{}
	for _, l := range layers.PerLayer {
		doc.moves[l.Name] = l.Moves
	}
	return &doc, nil
}

// why is workload name's reason in BENCHMARK.json.
func (d *benchDoc) why(name string) string {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sweep-cold, verify, service-mix, or all (each untraced, then traced)")
		seed    = flag.Int64("seed", 1, "workload seed; one seed always yields byte-identical requests")
		seconds = flag.Int("seconds", 20, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
		root    = flag.String("root", ".", "root of the source checkout")
		bin     = flag.String("bin", "", "directory holding the built ssyncd (default <root>/.bench_build/fleetbench/bin)")
	)
	flag.Parse()
	wls, err := selectWorkloads(*name)
	switch {
	case err != nil:
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case *seconds < 1:
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 2
	}
	if *bin == "" {
		*bin = filepath.Join(*root, ".bench_build", "fleetbench", "bin")
	}
	correct, err := bench(*root, *bin, wls, *name == "all", *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// bench runs each workload in each trace mode asked for, prints their
// reports, and prints the result line last.
func bench(root, bin string, wls []workload, both bool, seed int64, seconds int, traced bool) (bool, error) {
	doc, err := loadDocs(root)
	if err != nil {
		return false, err
	}
	ssyncd := filepath.Join(bin, "ssyncd")
	if _, err := os.Stat(ssyncd); err != nil {
		return false, fmt.Errorf("ssyncd binary: %w (build it with run.sh)", err)
	}
	if err := registerTracedPasses(); err != nil {
		return false, err
	}
	digest, err := sourceDigest(root)
	if err != nil {
		return false, fmt.Errorf("hash the checkout: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	modes := []bool{traced}
	if both {
		modes = []bool{false, true}
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range wls {
		for _, tr := range modes {
			cfg := runConfig{
				seed: seed, seconds: seconds, traced: tr, ssyncd: ssyncd,
				work:  filepath.Join(root, ".bench_build", "fleetbench", "work"),
				nproc: runtime.NumCPU(),
			}
			rep, err := runWorkload(ctx, cfg, wl, newEnvironment(root, digest, wl, cfg))
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.Name, err)
			}
			for _, m := range doc.EndToEnd {
				if _, ok := rep.e2e[m.Name]; !ok {
					rep.problem("BENCHMARK.json lists end-to-end metric %s, which the harness does not compute", m.Name)
				}
			}
			rep.print(os.Stdout, doc)
			final.Correct = final.Correct && rep.correct()
			final.Attempted += rep.attempted
			final.Failed += rep.failed
			for k, v := range rep.metrics(doc) {
				if len(wls)*len(modes) > 1 {
					k = wl.Name + "/" + k
				}
				final.Metrics[k] = v
			}
		}
	}
	fmt.Println(string(mustJSON(final)))
	return final.Correct, nil
}

// runConfig is one workload run's settings.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	ssyncd  string
	work    string
	nproc   int
}

// setupRuns is how many times an end-to-end run sets the fleet up;
// setup_s is their median, so one slow start does not move it.
const setupRuns = 5

// runWorkload generates wl's requests, sets the fleet up, runs the
// measured phase, checks every answer and computes the run's metrics.
func runWorkload(ctx context.Context, cfg runConfig, wl workload, env environment) (*report, error) {
	rep := &report{workload: wl.Name, traced: cfg.traced, env: env, e2e: map[string]float64{}, layers: map[string]layerValue{}}
	p, err := wl.Gen(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	dir := filepath.Join(cfg.work, wl.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var keys *keyFile
	if wl.Fleet.Router {
		if keys, err = writeKeyFile(dir); err != nil {
			return nil, err
		}
	}
	conns := cfg.nproc

	// Set the fleet up and warm it; an end-to-end run does so several
	// times and keeps the last fleet.
	setups := setupRuns
	if cfg.traced {
		setups = 1
	}
	var (
		f          *fleet
		warm       []*outcome
		setupTimes []float64
	)
	c := newClient(conns, "")
	defer func() {
		f.stop()
		c.close()
	}()
	for i := range setups {
		f.stop()
		c.close() // no connection outlives the fleet it was opened to
		start := time.Now()
		f, err = startFleet(ctx, cfg.ssyncd, wl.Fleet, cfg.nproc, filepath.Join(dir, fmt.Sprintf("setup%d", i)), keys)
		if err != nil {
			return nil, err
		}
		c.apiKey = f.apiKey
		warm, _ = closedLoop(ctx, c, f.base(), p.Warm, conns, 0)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j, o := range warm {
			if err := check(p.Warm[j], o); err != nil {
				return nil, fmt.Errorf("warm-up request %d: %w", j, err)
			}
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	before, err := f.scrape(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("scrape before the measured phase: %w", err)
	}
	var outs []*outcome
	var elapsed time.Duration
	if p.Rate > 0 {
		outs, elapsed = openLoop(ctx, c, f.base(), p.Reqs, conns)
	} else {
		outs, elapsed = closedLoop(ctx, c, f.base(), p.Reqs, conns, time.Duration(cfg.seconds)*time.Second)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := f.scrape(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("scrape after the measured phase: %w", err)
	}
	rss, err := f.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	f.stop()

	// Check every answer: schema, one answer per key within the run, and
	// for distinct-key workloads no repeated key.
	failed := map[int]bool{}
	answers := map[string]entryResult{}
	firstReq := map[string]int{}
	for _, o := range warm {
		for _, e := range o.Entries {
			answers[e.Key] = e
		}
	}
	var lat, lag []float64
	byKind := map[string][]float64{}
	attempted, kinds := 0, map[string]int{"warm": len(p.Warm)}
	for i, o := range outs {
		if o == nil {
			continue
		}
		attempted++
		r := p.Reqs[i]
		kinds[r.Kind]++
		if err := check(r, o); err != nil {
			failed[i] = true
			rep.problem("request %d (%s): %v", i, r.Kind, err)
			continue
		}
		for _, e := range o.Entries {
			prev, seen := answers[e.Key]
			switch {
			case seen && wl.Distinct:
				failed[i] = true
				rep.problem("request %d repeats key %s in a workload of distinct keys", i, e.Key[:12])
			case seen && prev != e:
				failed[i] = true
				rep.problem("request %d answered key %s with %+v, earlier with %+v", i, e.Key[:12], e, prev)
			case !seen:
				answers[e.Key] = e
				firstReq[e.Key] = i
			}
		}
		lat = append(lat, ms(o.latency()))
		lag = append(lag, ms(o.Sent-o.Sched))
		byKind[r.Kind] = append(byKind[r.Kind], ms(o.latency()))
	}
	// The same seed must get the same answers from every run of this
	// program in this checkout.
	record := filepath.Join(cfg.work, "records", fmt.Sprintf("%s-seed%d-%s.json", wl.Name, cfg.seed, env.SourceDigest))
	diffs, err := checkRecord(record, answers)
	if err != nil {
		return nil, fmt.Errorf("answer record: %w", err)
	}
	for _, k := range diffs {
		if i, ok := firstReq[k]; ok {
			failed[i] = true
		}
		rep.problem("key %s answered differently than in an earlier run of seed %d", k[:12], cfg.seed)
	}
	q, missing := qualityOf(append(append([]*request(nil), p.Warm...), p.Reqs...), append(append([]*outcome(nil), warm...), outs...))
	if missing > 0 {
		rep.problem("%d quality-set requests went unanswered", missing)
	}

	if cfg.traced {
		for name, v := range fleetLayers(before, after) {
			rep.layers[name] = v
		}
		if p.Rate > 0 {
			rep.layer("harness.gen_lag_p99_ms", percentile(lag, 0.99).Value)
		} else {
			rep.layers["harness.gen_lag_p99_ms"] = layerValue{note: "n/a"}
		}
		if sx, gx, panels := paperRatios(p.Reqs, outs); panels > 0 {
			rep.layer("core.shuttle_reduction_x", sx)
			rep.layer("core.success_gain_x", gx)
			rep.note("paper ratios over %d grid panels: %.3fx fewer shuttles, %.3fx higher success than the better baseline", panels, sx, gx)
		} else {
			rep.layers["core.shuttle_reduction_x"] = layerValue{note: "n/a"}
			rep.layers["core.success_gain_x"] = layerValue{note: "n/a"}
		}
		var urls []string
		for _, r := range f.replicas {
			urls = append(urls, r.url())
		}
		if err := replayLayers(ctx, rep, wl, cfg.nproc, p, outs, failed, dir, keys, urls, shardRequests(before, after)); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}

	ok := attempted - len(failed)
	rep.attempted, rep.failed = attempted, len(failed)
	rep.env.Requests = kinds
	rep.env.OfferedRPS = p.Rate
	rep.env.AchievedRPS = float64(ok) / elapsed.Seconds()
	if len(p.Reqs) > 0 && outs[len(outs)-1] != nil && p.Rate == 0 {
		rep.note("the request list ran out before the measured phase ended")
	}
	p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
	support := "supported"
	if !p99.Supported {
		support = "UNSUPPORTED: fewer than 10 samples beyond it"
	}
	rep.note("latency p50 %.3f ms over %d answers; p99 %.3f ms with %d samples beyond it (%s)", p50.Value, p50.N, p99.Value, p99.Beyond, support)
	var perKind []string
	for _, k := range slices.Sorted(maps.Keys(byKind)) {
		perKind = append(perKind, fmt.Sprintf("%s p50 %.3f / p99 %.3f ms (n=%d)",
			k, percentile(byKind[k], 0.5).Value, percentile(byKind[k], 0.99).Value, len(byKind[k])))
	}
	rep.note("latency by kind: %s", strings.Join(perKind, "; "))
	rep.note("error_ratio %g: %d failed of %d attempted", float64(len(failed))/float64(max(1, attempted)), len(failed), attempted)
	rep.note("setup runs (s): %v", setupTimes)
	rep.note("quality over %d distinct quality-set keys", q.Distinct)
	// The run's fleet files go now, and reach the disk now, so freeing
	// them cannot overlap the next run's measured phase.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	syscall.Sync()
	rep.e2e = map[string]float64{
		"setup_s":         median(setupTimes),
		"throughput_rps":  rep.env.AchievedRPS,
		"latency_p50_ms":  p50.Value,
		"latency_p99_ms":  p99.Value,
		"ok_ratio":        float64(ok) / float64(max(1, attempted)),
		"peak_rss_mib":    rss,
		"shuttles":        q.Shuttles,
		"swaps":           q.Swaps,
		"success_nlog10":  q.NLog10,
		"program_time_ms": q.ProgramMs,
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report is one workload run's outcome.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	problems  []string
	notes     []string
	e2e       map[string]float64
	layers    map[string]layerValue
	env       environment
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) layer(name string, v float64) { r.layers[name] = layerValue{value: v} }

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// metrics returns the run's result metrics: the end-to-end set untraced,
// the per-layer set traced. A per-layer metric whose source is missing
// reports 0.
func (r *report) metrics(doc *benchDoc) map[string]metric {
	out := map[string]metric{}
	if !r.traced {
		for _, m := range doc.EndToEnd {
			out[m.Name] = metric{Value: finite(r.e2e[m.Name]), Unit: m.Unit}
		}
		return out
	}
	for _, l := range doc.PerLayer {
		out[l.Name] = metric{Value: finite(r.layers[l.Name].value), Unit: l.Unit}
	}
	return out
}

// maxProblems bounds how many failed checks a report lists.
const maxProblems = 20

func (r *report) print(w io.Writer, doc *benchDoc) {
	mode := "end-to-end"
	if r.traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "# fleetbench %s, %s metrics, seed %d: %s\n", r.workload, mode, r.env.Seed, doc.why(r.workload))
	fmt.Fprintf(w, "# env %s\n", mustJSON(r.env))
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for i, p := range r.problems {
		if i == maxProblems {
			fmt.Fprintf(w, "# ... and %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(w, "# PROBLEM %s\n", p)
	}
	if !r.traced {
		for _, m := range doc.EndToEnd {
			fmt.Fprintf(w, "metric %s %s %s %s\n", r.workload, m.Name, formatValue(r.e2e[m.Name]), m.Unit)
		}
		return
	}
	for _, l := range doc.PerLayer {
		v, ok := r.layers[l.Name]
		if !ok {
			v.note = "absent"
		}
		line := fmt.Sprintf("metric %s %s %s %s", r.workload, l.Name, formatValue(v.value), l.Unit)
		if v.note != "" {
			line += " (" + v.note + ")"
		}
		var moves []string
		for _, m := range doc.moves[l.Name] {
			moves = append(moves, m.Metric+"@"+m.Workload)
		}
		if len(moves) > 0 {
			line += "  moves " + strings.Join(moves, ",")
		}
		fmt.Fprintln(w, line)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(finite(v), 'g', -1, 64) }

// environment records what a run ran on, so a run on a busy or different
// box shows as one.
type environment struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	Nproc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	LoadAvg      string         `json:"loadavg_start"`
	Fleet        string         `json:"fleet"`
	Connections  int            `json:"connections"`
	Requests     map[string]int `json:"requests"`
	OfferedRPS   float64        `json:"offered_rps"`
	AchievedRPS  float64        `json:"achieved_rps"`
}

func newEnvironment(root, digest string, wl workload, cfg runConfig) environment {
	return environment{
		Workload: wl.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.traced,
		Nproc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(root), SourceDigest: digest, LoadAvg: loadAvg(),
		Fleet: wl.Fleet.describe(cfg.nproc), Connections: cfg.nproc,
	}
}

// gitCommit names the checked-out commit: "none" outside a git checkout,
// "unknown" where git cannot tell.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	if _, err := os.Stat(gitDir); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "--git-dir", gitDir, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// loadAvg is the 1-, 5- and 15-minute load average at the start.
func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// sourceDigest hashes the checkout's Go sources and module files outside
// .git and .bench_build, so a run records which program it measured even
// where the checkout is not a git repository.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16], err
}
