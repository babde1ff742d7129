package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles the harness is willing to
// report, lowest first.
var percentileLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer and the value is one or two outliers, not a tail.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that still has at
// least minBeyond of n samples beyond it; the median when none has.
func tailPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) by the nearest-rank
// method; 0 for an empty slice. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the interpolated 50th percentile; 0 for an empty slice.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; 0 for an empty slice.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// classMedian summarises a mix of statement classes whose latencies
// differ by an order of magnitude: the mean over the classes of each
// class's median. A pooled median of such a mix sits between two modes
// and jumps from one to the other when a single sample moves, so it
// cannot hold a 10 % bound; the per-class medians can.
func classMedian(byClass map[string][]float64) float64 {
	var meds []float64
	for _, v := range byClass {
		if len(v) > 0 {
			meds = append(meds, median(v))
		}
	}
	return mean(meds)
}

// pooled concatenates every class's samples.
func pooled(byClass map[string][]float64) []float64 {
	var all []float64
	for _, v := range byClass {
		all = append(all, v...)
	}
	return all
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method), which is what the benchmark driver computes spreads from.
// It needs at least two values.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median, the
// driver's steadiness measure.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(samples)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
