package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p of the samples at or below it. It sorts a
// copy, so callers keep their sample order (round spreads depend on it).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailCandidates are the percentiles a tail latency may be reported at.
var tailCandidates = []float64{0.50, 0.75, 0.90, 0.95, 0.99}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it (choosing-metrics §1); with fewer than
// twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

// roundSpreadPct splits the samples, in arrival order, into k consecutive
// rounds and returns (max - min) / median of the rounds' medians, in
// percent: the drift of the host inside one run.
func roundSpreadPct(xs []float64, k int) float64 {
	if len(xs) < 2*k {
		return 0
	}
	meds := make([]float64, k)
	for r := 0; r < k; r++ {
		meds[r] = quantile(xs[r*len(xs)/k:(r+1)*len(xs)/k], 0.5)
	}
	mid := quantile(meds, 0.5)
	if mid == 0 {
		return 0
	}
	return 100 * (quantile(meds, 1) - quantile(meds, 1.0/float64(k))) / mid
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
