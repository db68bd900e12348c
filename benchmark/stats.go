package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is what a result file keeps of one metric's samples (one sample
// per repetition): enough to judge a later run against this one by the
// bounds in BENCHMARK.json without the raw samples.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Exact marks simulated-time counts that must repeat bit for bit.
	Exact bool `json:"exact,omitempty"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance check of this benchmark uses. Fewer than two samples have no
// spread: both quartiles are the sample.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j) // after clamping j, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(unit string, v []float64) summary {
	s := sorted(v)
	sum := summary{Unit: unit, N: len(s), Median: median(s)}
	if len(s) > 0 {
		sum.Min, sum.Max = s[0], s[len(s)-1]
	}
	sum.Q1, sum.Q3 = quartiles(s)
	return sum
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the p-th percentile (0 < p < 100) by the nearest-rank
// rule. It refuses a percentile that does not have at least ten samples
// beyond it: a p95 of forty samples would be decided by two of them.
func percentile(v []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range", p)
	}
	s := sorted(v)
	n := len(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least 10", p, n, beyond)
	}
	return s[rank-1], nil
}
