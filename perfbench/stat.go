package main

import "sort"

// summary is a sample's least value, median and quartiles with the
// sample count, so no timing is reported without the number of runs
// behind it.
type summary struct {
	N                   int
	Min, Q1, Median, Q3 float64
}

// summarize computes the median and quartiles with the same rule as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// so the figures here match what a reader recomputes from raw samples.
// With fewer than two samples every quantile is the single value.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Min = v[0]
	if len(v) == 1 {
		s.Q1, s.Median, s.Q3 = v[0], v[0], v[0]
		return s
	}
	s.Q1, s.Median, s.Q3 = quantile(v, 1), median(v), quantile(v, 3)
	return s
}

// median of an ascending, non-empty slice.
func median(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quantile returns the i-th quartile cut point of an ascending slice
// of at least two values, by the exclusive method: position i*(n+1)/4
// between the neighbouring order statistics. Like Python, it clamps the
// neighbour pair to the sample and extrapolates from it when the
// position falls outside, so tiny samples get the same figures.
func quantile(v []float64, i int) float64 {
	n := len(v)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (v[j-1]*(4-delta) + v[j]*delta) / 4
}

// ratio divides num by its base, reporting 0 when the base is 0 — a
// layer a workload does not exercise reads as zero, never as NaN.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// failRatio is failed cells over attempted cells.
func failRatio(failed, attempted int) float64 {
	return ratio(float64(failed), float64(attempted))
}
