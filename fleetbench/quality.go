package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ssync/internal/engine"
)

// minSuccess floors success rates that underflowed to zero, so the mean
// log10 success rate stays finite.
const minSuccess = math.SmallestNonzeroFloat64

func log10Success(s float64) float64 { return math.Log10(max(s, minSuccess)) }

// quality is the paper's schedule quality over a workload's distinct
// quality-set requests.
type quality struct {
	Distinct  int
	Shuttles  float64
	Swaps     float64
	NLog10    float64 // minus the mean log10 success rate
	ProgramMs float64 // summed simulated execution time
}

// qualityOf folds the answers of every quality-set request, once per
// key. missing counts quality requests without a checked answer.
func qualityOf(reqs []*request, outs []*outcome) (q quality, missing int) {
	seen := map[string]bool{}
	var logSum float64
	for i, r := range reqs {
		if !r.Quality {
			continue
		}
		if outs[i] == nil || outs[i].Entries == nil {
			missing++
			continue
		}
		for _, e := range outs[i].Entries {
			if seen[e.Key] {
				continue
			}
			seen[e.Key] = true
			q.Distinct++
			q.Shuttles += float64(e.Shuttles)
			q.Swaps += float64(e.Swaps)
			logSum += log10Success(e.SuccessRate)
			q.ProgramMs += e.ExecTimeUs / 1000
		}
	}
	if q.Distinct > 0 {
		q.NLog10 = -logSum / float64(q.Distinct)
	}
	return q, missing
}

// paperRatios folds the grid answers into the paper's headline ratios
// over the Figs. 8–10 panels: geometric means of the better baseline's
// shuttles over S-SYNC's, and of S-SYNC's success rate over the better
// baseline's. Panels where either shuttle count is zero have no shuttle
// ratio.
func paperRatios(reqs []*request, outs []*outcome) (shuttleX, successX float64, panels int) {
	type panel struct{ app, topo string }
	byPanel := map[panel]map[string]entryResult{}
	var order []panel
	for i, r := range reqs {
		if r.Kind != "grid" || outs[i] == nil || outs[i].Entries == nil {
			continue
		}
		w := r.Entries[0]
		k := panel{w.Benchmark, w.Topology}
		if byPanel[k] == nil {
			byPanel[k] = map[string]entryResult{}
			order = append(order, k)
		}
		byPanel[k][w.Compiler] = outs[i].Entries[0]
	}
	var shutLog, succLog float64
	shutN := 0
	for _, k := range order {
		m := byPanel[k]
		mu, okM := m[engine.CompilerMurali]
		dai, okD := m[engine.CompilerDai]
		ss, okS := m[engine.CompilerSSync]
		if !okM || !okD || !okS {
			continue
		}
		panels++
		if best := min(mu.Shuttles, dai.Shuttles); best > 0 && ss.Shuttles > 0 {
			shutLog += math.Log(float64(best) / float64(ss.Shuttles))
			shutN++
		}
		succLog += log10Success(ss.SuccessRate) - max(log10Success(mu.SuccessRate), log10Success(dai.SuccessRate))
	}
	if shutN > 0 {
		shuttleX = math.Exp(shutLog / float64(shutN))
	}
	if panels > 0 {
		successX = math.Pow(10, succLog/float64(panels))
	}
	return shuttleX, successX, panels
}

// checkRecord compares this run's answers with those earlier runs of the
// same seed and program recorded at path, then stores the union. It
// returns the keys answered differently.
func checkRecord(path string, got map[string]entryResult) ([]string, error) {
	old := map[string]entryResult{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if json.Unmarshal(data, &old) != nil {
			old = map[string]entryResult{} // a torn record starts over
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	var diffs []string
	for k, e := range got {
		if prev, ok := old[k]; ok {
			if prev != e {
				diffs = append(diffs, k)
			}
			continue
		}
		old[k] = e
	}
	sort.Strings(diffs)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, mustJSON(old), 0o644); err != nil {
		return nil, err
	}
	return diffs, os.Rename(tmp, path)
}
