package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm reads the Prometheus text format ssyncd serves on /metrics.
func parseProm(text []byte) ([]promSample, error) {
	var out []promSample
	for n, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.IndexAny(line, "{ ")
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value", n+1)
		}
		s := promSample{Name: line[:i]}
		rest := line[i:]
		if line[i] == '{' {
			var err error
			if s.Labels, rest, err = parseLabels(line[i+1:]); err != nil {
				return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
			}
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", n+1)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		s.Value = v
		out = append(out, s)
	}
	return out, nil
}

var errLabels = errors.New("malformed label set")

// parseLabels reads `k="v",...}` and returns the labels and what follows
// the closing brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		s = strings.TrimLeft(s, " ,")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, "", errLabels
		}
		var b strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					b.WriteByte('\n')
					continue
				}
			}
			b.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, "", errLabels
		}
		labels[strings.TrimSpace(s[:eq])] = b.String()
		s = s[i+1:]
	}
}

// total adds the series of family name whose labels pass keep (nil keeps
// all); found reports whether the family was exposed at all.
func total(samples []promSample, name string, keep func(map[string]string) bool) (sum float64, found bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		found = true
		if keep == nil || keep(s.Labels) {
			sum += s.Value
		}
	}
	return sum, found
}

// snapshot is one scrape of the fleet's public counters: every
// replica's /metrics and /v2/stats, the router's /metrics and
// /cluster/stats.
type snapshot struct {
	replicas []replicaScrape
	router   []promSample
	cluster  *clusterStats
}

type replicaScrape struct {
	metrics []promSample
	stats   v2Stats
}

// v2Stats is the part of a replica's /v2/stats the metrics read.
type v2Stats struct {
	Sched *struct {
		Classes map[string]struct {
			Admitted  float64 `json:"admitted"`
			AvgWaitMs float64 `json:"avg_wait_ms"`
		} `json:"classes"`
	} `json:"sched"`
}

// clusterStats is the router's /cluster/stats document.
type clusterStats struct {
	Shards []struct {
		Requests float64 `json:"requests"`
		Spills   float64 `json:"spills"`
		Errors   float64 `json:"errors"`
	} `json:"shards"`
}

// shardRequests is how many requests the router sent each replica
// between two scrapes, nil for a fleet without a router.
func shardRequests(b, a *snapshot) []float64 {
	if a.cluster == nil || b.cluster == nil || len(a.cluster.Shards) != len(b.cluster.Shards) {
		return nil
	}
	out := make([]float64, len(a.cluster.Shards))
	for i, s := range a.cluster.Shards {
		out[i] = s.Requests - b.cluster.Shards[i].Requests
	}
	return out
}

func (f *fleet) scrape(ctx context.Context, c *client) (*snapshot, error) {
	s := &snapshot{}
	for _, p := range f.replicas {
		var r replicaScrape
		body, err := c.get(ctx, p.url()+"/metrics")
		if err != nil {
			return nil, err
		}
		if r.metrics, err = parseProm(body); err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		if body, err = c.get(ctx, p.url()+"/v2/stats"); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(body, &r.stats); err != nil {
			return nil, fmt.Errorf("%s /v2/stats: %w", p.name, err)
		}
		s.replicas = append(s.replicas, r)
	}
	if f.router == nil {
		return s, nil
	}
	body, err := c.get(ctx, f.router.url()+"/metrics")
	if err != nil {
		return nil, err
	}
	if s.router, err = parseProm(body); err != nil {
		return nil, fmt.Errorf("router /metrics: %w", err)
	}
	if body, err = c.get(ctx, f.router.url()+"/cluster/stats"); err != nil {
		return nil, err
	}
	s.cluster = &clusterStats{}
	if err := json.Unmarshal(body, s.cluster); err != nil {
		return nil, fmt.Errorf("router /cluster/stats: %w", err)
	}
	return s, nil
}

// layerValue is one per-layer measurement. note is "" for a measured
// value, "n/a" where the workload's fleet has no such layer, and
// "absent" where the fleet no longer exposes the source; both report 0.
type layerValue struct {
	value float64
	note  string
}

// fleetLayers diffs two scrapes taken around the measured phase into
// the counter-based per-layer metrics.
func fleetLayers(b, a *snapshot) map[string]layerValue {
	out := map[string]layerValue{}
	set := func(name string, v float64, found bool) {
		if !found {
			out[name] = layerValue{note: "absent"}
			return
		}
		out[name] = layerValue{value: v}
	}
	ratio := func(name string, num, den float64, found bool) {
		if den <= 0 {
			num, den = 0, 1
		}
		set(name, num/den, found)
	}
	replica := func(name string, keep func(map[string]string) bool) (float64, bool) {
		var sum float64
		found := false
		for i := range a.replicas {
			av, ok := total(a.replicas[i].metrics, name, keep)
			bv, _ := total(b.replicas[i].metrics, name, keep)
			found = found || ok
			sum += av - bv
		}
		return sum, found
	}
	cache := func(c string) func(map[string]string) bool {
		return func(l map[string]string) bool { return l["cache"] == c }
	}
	compileRoutes := func(l map[string]string) bool { return l["route"] == compilePath || l["route"] == batchPath }

	v, ok := replica("ssync_engine_compiled_total", nil)
	set("engine.compiled", v, ok)
	v, ok = replica("ssync_engine_coalesced_total", nil)
	set("engine.coalesced", v, ok)
	for _, c := range []string{"results", "stages"} {
		hits, okH := replica("ssync_store_hits_total", cache(c))
		miss, okM := replica("ssync_store_misses_total", cache(c))
		ratio("store."+c+".hit_ratio", hits, hits+miss, okH && okM)
	}
	v, ok = replica("ssync_store_hits_total", func(l map[string]string) bool {
		return l["cache"] == "results" && l["tier"] == "disk"
	})
	set("store.results.disk_hits", v, ok)
	wait, ok := schedWait(a)
	set("sched.wait_ms", wait, ok)
	v, ok = replica("ssync_sched_shed_total", nil)
	set("sched.shed", v, ok)
	hits, okH := replica("ssync_sim_ref_cache_hits_total", nil)
	miss, okM := replica("ssync_sim_ref_cache_misses_total", nil)
	ratio("sim.ref_hit_ratio", hits, hits+miss, okH && okM)
	v, ok = replica("ssync_sim_applies_total", nil)
	set("sim.applies", v, ok)
	sum, okS := replica("ssync_http_request_duration_seconds_sum", compileRoutes)
	n, okN := replica("ssync_http_request_duration_seconds_count", compileRoutes)
	ratio("edge.server_ms", 1000*sum, n, okS && okN)

	if a.cluster == nil {
		for _, name := range []string{"cluster.proxy_ms", "cluster.spills", "cluster.forward_errors", "auth.demoted", "auth.shed"} {
			out[name] = layerValue{note: "n/a"}
		}
		return out
	}
	router := func(name string, keep func(map[string]string) bool) (float64, bool) {
		av, ok := total(a.router, name, keep)
		bv, _ := total(b.router, name, keep)
		return av - bv, ok
	}
	sum, okS = router("ssync_cluster_proxy_duration_seconds_sum", compileRoutes)
	n, okN = router("ssync_cluster_proxy_duration_seconds_count", compileRoutes)
	ratio("cluster.proxy_ms", 1000*sum, n, okS && okN)
	var spills, errs float64
	for i, s := range a.cluster.Shards {
		if i < len(b.cluster.Shards) {
			spills += s.Spills - b.cluster.Shards[i].Spills
			errs += s.Errors - b.cluster.Shards[i].Errors
		}
	}
	set("cluster.spills", spills, true)
	set("cluster.forward_errors", errs, true)
	// Demotion and shed families appear with their first event; the auth
	// layer itself shows through its request counter.
	_, authOn := total(a.router, "ssync_auth_requests_total", nil)
	v, ok = router("ssync_auth_demotions_total", nil)
	set("auth.demoted", v, ok || authOn)
	v, ok = router("ssync_auth_shed_total", nil)
	set("auth.shed", v, ok || authOn)
	return out
}

// schedWait is the one queue-wait figure /v2/stats allows, and it is not
// the measured phase's: each class's avg_wait_ms is the mean wait of the
// admissions that queued since the replica started, warm-up included,
// and nothing counts those admissions or their total wait, so nothing
// can be diffed. The classes and replicas are averaged weighted by their
// admissions since start.
func schedWait(s *snapshot) (float64, bool) {
	var num, den float64
	found := false
	for _, r := range s.replicas {
		if r.stats.Sched == nil {
			continue
		}
		found = true
		for _, c := range r.stats.Sched.Classes {
			num += c.AvgWaitMs * c.Admitted
			den += c.Admitted
		}
	}
	if den == 0 {
		return 0, found
	}
	return num / den, found
}
