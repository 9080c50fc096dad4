package bench

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs, computed exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// so the spreads this package reports match the ones an outside check
// computes from the same values.  A single value is its own quartiles.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between the closest ranks.
func Percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentiles are the candidates TailPercentile picks from.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// TailPercentile returns the highest of p99, p95, p90, p75 and p50 that
// has at least ten of n samples beyond it — p75 at n=40, p90 at n=100.
// Below twenty samples no percentile above the median qualifies, and the
// median is returned.
func TailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
