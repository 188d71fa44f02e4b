package stats

import (
	"math"
	"sort"
)

// KSStatistic computes the one-sample Kolmogorov-Smirnov statistic
// D = sup_x |F_n(x) - F(x)| between the empirical distribution of xs and
// the hypothesized CDF. The input is not modified.
func KSStatistic(xs []float64, cdf func(float64) float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		fx := cdf(x)
		// Compare against the ECDF just below and just above the step.
		lo := float64(i) / n
		hi := float64(i+1) / n
		if diff := math.Abs(fx - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(fx - hi); diff > d {
			d = diff
		}
	}
	return d, nil
}

// ExpCDF returns the CDF of an exponential distribution with the given
// rate.
func ExpCDF(rate float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-rate*x)
	}
}

// WeibullCDF returns the CDF of a Weibull distribution with the given
// shape and scale.
func WeibullCDF(shape, scale float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-math.Pow(x/scale, shape))
	}
}
