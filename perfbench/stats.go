package main

import (
	"math"
	"sort"
	"time"
)

// The statistics here are the benchmark's own: go.mod has no
// dependencies, so there is no benchstat to lean on.

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the steadiness command agrees with an outside check made
// with that function. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// relIQR is the interquartile range as a share of the median: the
// run-to-run spread a bound is compared against.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// ms and us convert durations to the float units the metrics report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// inUnits converts a duration sample to floats counting unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
