package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one or two outliers, not a quantile.
const minTailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, and false when
// fewer than minTailSamples samples lie beyond it (the percentile is
// withheld). sorted must be ascending.
func percentile(sorted []uint32, q float64) (uint32, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(q * float64(n-1))
	return sorted[idx], n-1-idx >= minTailSamples
}

// median returns the median of vals (mean of the middle pair for an even
// count); 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method the driver
// uses). vals needs at least 2 elements and is not modified.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrSpread is the distance between the quartiles of vals as a share of
// their median: the run-to-run spread the driver computes. 0 below 2 values.
func iqrSpread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / m
}

// medianNoise estimates, from one run's samples, how far the median the run
// reports could sit from the true one: the samples' iqrSpread scaled by
// 1/sqrt(n). It is recorded beside every metric that is a median, so that
// -compare can tell a difference between two single runs from noise.
func medianNoise(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return iqrSpread(vals) / math.Sqrt(float64(len(vals)))
}

// medianOf reports the median of one run's samples as a metric, with the
// noise estimate and the sample count beside it.
func medianOf(vals []float64) metricValue {
	return metricValue{Value: median(vals), Spread: medianNoise(vals), Samples: len(vals)}
}

// ratio is a/b, 0 when b is 0 (a count that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
