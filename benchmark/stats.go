package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an
// even count); 0 for none. vs is left as it was.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// tail returns the highest candidate percentile of sorted that still
// has at least ten samples beyond it, with its label; a tail estimated
// from fewer samples is not reported. Below twenty samples not even the
// median qualifies and the label is empty.
func tail(sorted []float64) (label string, value float64) {
	n := len(sorted)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		p := tailPercentiles[i]
		// Samples at or below the percentile, rounded up; the tolerance
		// keeps 0.9*100 from counting as more than 90.
		atOrBelow := int(math.Ceil(p*float64(n) - 1e-9))
		if n-atOrBelow >= 10 {
			return fmt.Sprintf("p%g", p*100), quantile(sorted, p)
		}
	}
	return "", 0
}

// iqrShare is the distance between the first and third quartile of vs
// as a share of their median, computed as Python's
// statistics.quantiles(vs, n=4) does (exclusive method). It needs at
// least two values.
func iqrShare(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th quartile cut point
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (at(3) - at(1)) / m
}
