package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it.
const minBeyond = 10

// reportable are the percentiles a timing may be reported at, lowest
// first.
var reportable = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest reportable percentile with at
// least minBeyond of n samples beyond it, or 0 when even the median
// has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when
// xs is empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// windowedPercentile splits xs, in the order the samples were taken,
// into consecutive windows of window samples (the last, partial window
// joins the one before it), takes the p-th percentile of each, and
// returns their median. A burst of slow samples then moves one window's
// percentile, not the result. Callers choose window so that each
// window has at least minBeyond samples beyond p.
func windowedPercentile(xs []float64, p float64, window int) float64 {
	n := len(xs) / window
	if n < 2 {
		return percentile(xs, p)
	}
	ps := make([]float64, n)
	for w := range ps {
		hi := (w + 1) * window
		if w == n-1 {
			hi = len(xs)
		}
		ps[w] = percentile(xs[w*window:hi], p)
	}
	return median(ps)
}

// median returns the middle value of xs, averaging the two middle
// values of an even-length sample (NaN when xs is empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
