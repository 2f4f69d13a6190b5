package obs

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expose renders the registry and returns its exposition text.
func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

// Exposition-format line shapes: every non-comment line must be
// <name>{labels} <value> with a valid metric name and quoted, escaped
// label values.
var (
	sampleLineRe = regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	helpLineRe = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	typeLineRe = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
)

// checkExposition validates every line of an exposition document
// against the text-format grammar.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		switch {
		case strings.HasPrefix(line, "# HELP"):
			if !helpLineRe.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE"):
			if !typeLineRe.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line: %q", line)
		default:
			if !sampleLineRe.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
			}
		}
	}
}

func TestExpositionValid(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", "route", "code")
	c.With("/v2/compile", "200").Inc()
	c.With("/v2/compile", "400").Add(3)
	g := r.Gauge("test_inflight", "In-flight requests.")
	g.With().Set(2)
	h := r.Histogram("test_latency_seconds", "Latency.", nil, "route")
	h.Observe(0.003, "/v2/compile")
	h.Observe(0.2, "/v2/compile")
	h.Observe(99, "/v2/compile")

	text := expose(t, r)
	checkExposition(t, text)

	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{route="/v2/compile",code="200"} 1`,
		`test_requests_total{route="/v2/compile",code="400"} 3`,
		"# TYPE test_inflight gauge",
		"test_inflight 2",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{route="/v2/compile",le="+Inf"} 3`,
		`test_latency_seconds_count{route="/v2/compile"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Families must appear in sorted order.
	i1 := strings.Index(text, "# HELP test_inflight")
	i2 := strings.Index(text, "# HELP test_latency_seconds")
	i3 := strings.Index(text, "# HELP test_requests_total")
	if !(i1 >= 0 && i1 < i2 && i2 < i3) {
		t.Errorf("families not sorted: inflight@%d latency@%d requests@%d", i1, i2, i3)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "h.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	text := expose(t, r)
	checkExposition(t, text)

	bucketRe := regexp.MustCompile(`test_hist_bucket\{le="([^"]+)"\} (\d+)`)
	var prev uint64
	var bounds []string
	for _, m := range bucketRe.FindAllStringSubmatch(text, -1) {
		n, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatalf("bucket count %q: %v", m[2], err)
		}
		if n < prev {
			t.Errorf("bucket le=%s count %d below previous %d (not monotone)", m[1], n, prev)
		}
		prev = n
		bounds = append(bounds, m[1])
	}
	if len(bounds) != 4 || bounds[3] != "+Inf" {
		t.Fatalf("bucket bounds = %v, want 4 ending in +Inf", bounds)
	}
	// The +Inf bucket equals _count.
	if !strings.Contains(text, `test_hist_bucket{le="+Inf"} 5`) ||
		!strings.Contains(text, "test_hist_count 5") {
		t.Errorf("+Inf bucket or count wrong:\n%s", text)
	}
	if !strings.Contains(text, "test_hist_sum 56.05") {
		t.Errorf("sum wrong:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_esc_total", "Help with \\ backslash\nand newline.", "v")
	c.With("a\"b\\c\nd").Inc()
	text := expose(t, r)
	checkExposition(t, text)
	if !strings.Contains(text, `test_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", text)
	}
	if !strings.Contains(text, `# HELP test_esc_total Help with \\ backslash\nand newline.`) {
		t.Errorf("help not escaped:\n%s", text)
	}
}

func TestOnScrape(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_mirrored", "m.")
	n := 0
	r.OnScrape(func() { n++; g.With().Set(float64(n)) })
	if text := expose(t, r); !strings.Contains(text, "test_mirrored 1") {
		t.Errorf("first scrape: %s", text)
	}
	if text := expose(t, r); !strings.Contains(text, "test_mirrored 2") {
		t.Errorf("second scrape: %s", text)
	}
}

func TestEmptyFamiliesOmitted(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_unused_total", "never incremented")
	if text := expose(t, r); text != "" {
		t.Errorf("family with no cells rendered: %q", text)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "t.").With().Inc()

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	checkExposition(t, rec.Body.String())

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dup_total", "d.")
	for name, fn := range map[string]func(){
		"duplicate name":  func() { r.Counter("test_dup_total", "again") },
		"invalid name":    func() { r.Counter("bad-name", "b.") },
		"invalid label":   func() { r.Counter("test_label_total", "b.", "bad-label") },
		"bad buckets":     func() { r.Histogram("test_b", "b.", []float64{1, 1}) },
		"label mismatch":  func() { r.Counter("test_mismatch_total", "m.", "a").With("x", "y") },
		"observe counter": func() { r.Counter("test_obs_total", "o.").Observe(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/v2/compile":          "/v2/compile",
		"/v2/batch":            "/v2/batch",
		"/v2/compilers":        "/v2/compilers",
		"/v2/passes":           "/v2/passes",
		"/v2/stats":            "/v2/stats",
		"/v2/traces":           "/v2/traces",
		"/metrics":             "/metrics",
		"/v2/traces/0123abcd":  "/v2/traces/{id}",
		"/v1/compile":          "other",
		"/wp-admin/setup.php":  "other",
		"/v2/compile/../stats": "other",
	}
	for path, want := range cases {
		if got := RouteLabel(path); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
