package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for even counts), or 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the percentile ladder tail() climbs.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, and that percentile's value. With fewer than twenty
// samples no rung qualifies, and tail falls back to the median (pct 50),
// so the reported tail is never extrapolated from a handful of samples.
func tail(xs []float64) (pct, value float64) {
	pct = 50
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 != 0.1 in floating point
			pct = p
		}
	}
	return pct, quantile(xs, pct/100)
}
