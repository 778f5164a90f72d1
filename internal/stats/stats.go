// Package stats provides the sample reductions the twin reports with:
// mean, variance and standard deviation, minimum and maximum,
// interpolated percentiles, a one-line Summary, and streaming Moments
// that answer the same queries in O(1) as samples arrive.
//
// These are the reductions behind the paper's reported quantities: the
// window means of Figures 1-3 and the utilisation percentiles behind the
// ">90% in all periods" statement.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs. It returns (0, 0) for an
// empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice
// and panics for p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileOfSorted(sorted, p)
}

// PercentileOfSorted is Percentile for a slice the caller has already
// sorted ascending: no copy, no sort, no allocation. Callers computing
// several percentiles of one sample (timeseries.Series.Summary) sort once
// and interpolate repeatedly.
func PercentileOfSorted(sorted []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// Summarize computes the Summary of xs, sorting one copy of the sample
// and interpolating all three percentiles from it.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		P25:    PercentileOfSorted(sorted, 25),
		Median: PercentileOfSorted(sorted, 50),
		P75:    PercentileOfSorted(sorted, 75),
		Max:    max,
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g p50=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}

// Moments tracks a sample's streaming moments — count, running sum, sum
// of squares, minimum and maximum — maintained in O(1) per observation so
// containers can answer Mean/StdDev/Min/Max queries in O(1) with zero
// allocation, however many samples they hold. The running sum accumulates
// in observation order, so Mean is bit-identical to a post-hoc
// stats.Mean pass over the same values in the same order; Variance uses
// the sum-of-squares identity, which is numerically (not bitwise) equal
// to the two-pass Variance and is clamped at zero against cancellation.
type Moments struct {
	N     int
	Sum   float64
	SumSq float64
	Min   float64
	Max   float64
}

// Add records one observation.
func (m *Moments) Add(x float64) {
	if m.N == 0 {
		m.Min, m.Max = x, x
	} else {
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	m.N++
	m.Sum += x
	m.SumSq += x * x
}

// Mean returns the running mean, or 0 before any observation.
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Variance returns the population variance from the streaming moments
// (0 when N < 2), clamped at zero against floating-point cancellation.
func (m Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	mean := m.Mean()
	v := m.SumSq/float64(m.N) - mean*mean
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev returns the population standard deviation from the moments.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }
