package main

import (
	"math"
	"slices"
)

// median returns the median of v (0 for an empty slice). v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), so spreads computed here match spreads computed by
// anyone re-reading the result files with Python.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tail is a high percentile of a sample: the highest of the candidate
// percentiles that still has at least ten samples beyond it, so the value is
// not decided by one or two outliers.
type tail struct {
	value, pct float64
	samples    int
}

var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailOf returns the tail of v (nearest-rank percentile); with fewer than
// twenty samples it falls back to the median. v is not modified.
func tailOf(v []float64) tail {
	if len(v) == 0 {
		return tail{}
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return tail{value: s[rank-1], pct: p, samples: n}
		}
	}
	return tail{value: median(s), pct: 50, samples: n}
}

// ratio returns a/b, or 0 when b is 0 (a layer a workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
