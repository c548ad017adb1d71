package bench

import (
	"sort"

	"repro/internal/stats"
)

// Summary is a sample reduced to what a reader needs to tell a delta from
// noise: the count, the median and the quartiles.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize reduces xs; the zero Summary stands for an empty sample.
func Summarize(xs []float64) Summary {
	q, ok := stats.QuartilesOf(xs)
	if !ok {
		return Summary{}
	}
	return Summary{N: len(xs), Median: q.Median, Q1: q.Q1, Q3: q.Q3, Min: q.Min, Max: q.Max}
}

func median(xs []float64) float64 { return Summarize(xs).Median }

// tailPercentiles are the percentiles a latency report may name, highest
// first, each with the share of samples beyond it in per mille (integer,
// so the ten-sample rule is exact).
var tailPercentiles = []struct {
	p        float64
	perMille int
}{{0.999, 1}, {0.99, 10}, {0.9, 100}, {0.5, 500}}

// TailPercentile picks the highest percentile of an n-sample latency
// distribution that still has at least ten samples beyond it (p99 of 600
// requests has six, so p90 is the one to report). ok is false below
// twenty samples, where not even the median qualifies.
func TailPercentile(n int) (p float64, ok bool) {
	for _, t := range tailPercentiles {
		if n*t.perMille >= 10*1000 {
			return t.p, true
		}
	}
	return 0, false
}

// Percentile returns the p-quantile (0..1) of xs by nearest rank.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
