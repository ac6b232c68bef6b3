// Package stats provides the summary statistics the experiment harness uses
// when repeating stochastic runs across seeds: means, standard deviations,
// order statistics, normal-approximation confidence intervals, and a
// generic multi-seed repetition helper.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned (wrapped) for statistics over empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the descriptive statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range xs {
		sum += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ssq float64
		for _, v := range xs {
			d := v - s.Mean
			ssq += d * d
		}
		s.StdDev = math.Sqrt(ssq / float64(len(xs)-1))
	}
	var err error
	s.Median, err = Quantile(xs, 0.5)
	if err != nil {
		return Summary{}, err
	}
	return s, nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by linear interpolation of
// the sorted sample.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// String renders a summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.4g [%.4g, %.4g] median=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Max, s.Median)
}

// Repeat runs f once per seed and summarizes the returned metric. Any run
// error aborts the repetition.
func Repeat(seeds []uint64, f func(seed uint64) (float64, error)) (Summary, error) {
	if len(seeds) == 0 {
		return Summary{}, ErrEmpty
	}
	out := make([]float64, 0, len(seeds))
	for _, seed := range seeds {
		v, err := f(seed)
		if err != nil {
			return Summary{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		out = append(out, v)
	}
	return Summarize(out)
}

// Seeds returns n deterministic, well-spread seeds starting at base.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*0x9e3779b97f4a7c15
	}
	return out
}
