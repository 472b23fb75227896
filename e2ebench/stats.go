package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice, NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile in
// n samples. The tolerance keeps float error in p/100*n (99.9% of
// 10,000 is 9990.000000000002) from pushing the rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the p-th percentile of n.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLevels are the percentiles the tail rule chooses among.
var tailLevels = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile applies the tail rule: the highest percentile of
// tailLevels that still has at least ten samples beyond it among n.
// ok is false when not even the median does.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLevels) - 1; i >= 0; i-- {
		if beyond(n, tailLevels[i]) >= 10 {
			return tailLevels[i], true
		}
	}
	return 0, false
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// gaps returns the successive differences of ascending timestamps, in
// milliseconds, starting from origin.
func gaps(origin time.Time, stamps []time.Time) []float64 {
	out := make([]float64, 0, len(stamps))
	prev := origin
	for _, t := range stamps {
		out = append(out, ms(t.Sub(prev)))
		prev = t
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
