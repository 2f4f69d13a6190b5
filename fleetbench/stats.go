package main

import (
	"math"
	"sort"
)

// pct is one percentile of a sample together with the evidence behind
// it: the sample size and how many samples lie above the reported value.
// A percentile is supported when at least ten samples lie beyond it, so
// a p99 needs about a thousand samples.
type pct struct {
	Value     float64
	N         int
	Beyond    int
	Supported bool
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which it does not modify.
func percentile(xs []float64, q float64) pct {
	p := pct{N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q*n from rounding up past an exact rank.
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	rank = max(1, min(rank, len(s)))
	p.Value = s[rank-1]
	p.Beyond = len(s) - rank
	p.Supported = p.Beyond >= 10
	return p
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
