package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The metrics registry renders the Prometheus text exposition format
// (version 0.0.4) with no external dependency: families are registered
// once (Counter / Gauge / Histogram), label combinations materialise
// cells on first use, and WriteText emits HELP/TYPE headers, sorted
// families, escaped label values and cumulative histogram buckets —
// everything a scraper needs and nothing more.

// Metric kinds as exposed on the TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// knownRoutes is the route-label allowlist of the service's HTTP
// metrics, shared by a replica and the cluster router.
var knownRoutes = map[string]bool{
	"/v2/compile": true, "/v2/batch": true, "/v2/compilers": true,
	"/v2/passes": true, "/v2/stats": true, "/v2/traces": true,
	"/metrics": true,
}

// RouteLabel maps a request path to its route label: a known route is
// its own label, any /v2/traces/<id> is "/v2/traces/{id}", and anything
// else — typos, scans, probes — collapses into "other", so walking paths
// cannot mint unbounded label cardinality.
func RouteLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	if strings.HasPrefix(path, "/v2/traces/") {
		return "/v2/traces/{id}"
	}
	return "other"
}

// DurationBuckets is the default histogram layout for latencies in
// seconds: 100µs to 10s, roughly logarithmic — wide enough for both a
// sub-millisecond cache probe and a multi-second annealed placement.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them in Prometheus text
// format. Safe for concurrent use; the zero value is not usable — call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Metric
	onScrape []func()
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Metric)}
}

// OnScrape registers fn to run at the start of every exposition write —
// the hook snapshot-style metrics use to mirror point-in-time stats
// (scheduler depths, cache tier sizes) into gauges and counters right
// before they are read.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// register adds one family, panicking on invalid or duplicate names —
// metric registration is init-time programmer action, not request-time
// input.
func (r *Registry) register(name, help, kind string, buckets []float64, labels []string) *Metric {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	m := &Metric{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		cells:   make(map[string]*Cell),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	r.families[name] = m
	return m
}

// Counter registers a monotonically increasing metric family.
func (r *Registry) Counter(name, help string, labels ...string) *Metric {
	return r.register(name, help, kindCounter, nil, labels)
}

// Gauge registers a point-in-time value family.
func (r *Registry) Gauge(name, help string, labels ...string) *Metric {
	return r.register(name, help, kindGauge, nil, labels)
}

// Histogram registers a distribution family over the given ascending
// bucket upper bounds (exclusive of the implicit +Inf); nil selects
// DurationBuckets. Bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Metric {
	if buckets == nil {
		buckets = DurationBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: metric %s: bucket bounds not strictly increasing", name))
		}
	}
	return r.register(name, help, kindHistogram, append([]float64(nil), buckets...), labels)
}

// Metric is one family: a name, HELP/TYPE metadata and a cell per label
// combination.
type Metric struct {
	name, help, kind string
	labels           []string
	buckets          []float64

	mu    sync.Mutex
	cells map[string]*Cell
}

// With returns the cell for one label-value combination, materialising
// it on first use. The value count must match the registered label
// count exactly; a mismatch is a programming error and panics.
func (m *Metric) With(values ...string) *Cell {
	if len(values) != len(m.labels) {
		panic(fmt.Sprintf("obs: metric %s: got %d label values, want %d", m.name, len(values), len(m.labels)))
	}
	key := strings.Join(values, "\xff")
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key]
	if !ok {
		c = &Cell{values: append([]string(nil), values...)}
		if m.kind == kindHistogram {
			c.counts = make([]uint64, len(m.buckets))
		}
		m.cells[key] = c
	}
	return c
}

// Cell is one series: a single value (counter/gauge) or one histogram.
type Cell struct {
	values []string

	mu    sync.Mutex
	value float64
	// Histogram state: per-bucket (non-cumulative) counts, the running
	// sum and the observation count.
	counts []uint64
	sum    float64
	count  uint64
}

// Inc adds one.
func (c *Cell) Inc() { c.Add(1) }

// Add adds v to the cell's value.
func (c *Cell) Add(v float64) {
	c.mu.Lock()
	c.value += v
	c.mu.Unlock()
}

// Set replaces the cell's value. Gauges set freely; counters use Set
// only to mirror an external monotone source (a stats snapshot), which
// keeps the exposed series monotone because the source is.
func (c *Cell) Set(v float64) {
	c.mu.Lock()
	c.value = v
	c.mu.Unlock()
}

// observe records one histogram observation; reached via
// Metric.Observe, which owns the bucket layout.
func (c *Cell) observe(v float64, buckets []float64) {
	c.mu.Lock()
	for i, b := range buckets {
		if v <= b {
			c.counts[i]++
			break
		}
	}
	c.sum += v
	c.count++
	c.mu.Unlock()
}

// Observe records v into the cell for the given label values — the
// one-call form of With(...).Observe for histograms (the bucket layout
// lives on the family, so observation goes through it).
func (m *Metric) Observe(v float64, values ...string) {
	if m.kind != kindHistogram {
		panic(fmt.Sprintf("obs: metric %s: Observe on a %s", m.name, m.kind))
	}
	m.With(values...).observe(v, m.buckets)
}

// WriteText renders every family in Prometheus text exposition format:
// families sorted by name, series sorted by label values, histogram
// buckets cumulative with the trailing +Inf, _sum and _count series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*Metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range fams {
		m.writeTo(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (m *Metric) writeTo(b *strings.Builder) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.cells))
	for k := range m.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		values []string
		value  float64
		counts []uint64
		sum    float64
		count  uint64
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		c := m.cells[k]
		c.mu.Lock()
		rows = append(rows, row{
			values: c.values, value: c.value,
			counts: append([]uint64(nil), c.counts...),
			sum:    c.sum, count: c.count,
		})
		c.mu.Unlock()
	}
	m.mu.Unlock()
	if len(rows) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", m.name, m.kind)
	for _, row := range rows {
		if m.kind != kindHistogram {
			b.WriteString(m.name)
			writeLabels(b, m.labels, row.values, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatFloat(row.value))
			b.WriteByte('\n')
			continue
		}
		cum := uint64(0)
		for i, bound := range m.buckets {
			cum += row.counts[i]
			b.WriteString(m.name)
			b.WriteString("_bucket")
			writeLabels(b, m.labels, row.values, "le", bound)
			fmt.Fprintf(b, " %d\n", cum)
		}
		b.WriteString(m.name)
		b.WriteString("_bucket")
		writeLabels(b, m.labels, row.values, "le", math.Inf(1))
		fmt.Fprintf(b, " %d\n", row.count)
		b.WriteString(m.name)
		b.WriteString("_sum")
		writeLabels(b, m.labels, row.values, "", 0)
		fmt.Fprintf(b, " %s\n", formatFloat(row.sum))
		b.WriteString(m.name)
		b.WriteString("_count")
		writeLabels(b, m.labels, row.values, "", 0)
		fmt.Fprintf(b, " %d\n", row.count)
	}
}

// writeLabels renders {k="v",...}, appending the le bucket label when
// leName is non-empty; nothing at all for a label-less series.
func writeLabels(b *strings.Builder, names, values []string, leName string, le float64) {
	if len(names) == 0 && leName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// ServeHTTP makes the registry a GET /metrics handler emitting the text
// exposition content type scrapers negotiate.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if req.Method == http.MethodHead {
		return
	}
	r.WriteText(w)
}
