// Package stats provides the statistical machinery used by the resilience
// analysis: sample summaries with order statistics, binomial proportion
// confidence intervals (Wilson score), maximum-likelihood fits for the
// exponential, Weibull and lognormal families commonly used for
// time-between-failures data with a Kolmogorov-Smirnov distance to judge
// them, and the Kaplan-Meier estimator for right-censored interrupt times.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the usual moments and order statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample. The input is not modified.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := 0.0
	if len(sorted) > 1 {
		variance = (sumSq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0 // numerical noise
		}
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P25:    quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		P75:    quantileSorted(sorted, 0.75),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Proportion is a binomial proportion with a confidence interval.
type Proportion struct {
	Successes int
	Trials    int
	// P is the point estimate Successes/Trials.
	P float64
	// Lo and Hi bound the Wilson score interval.
	Lo, Hi float64
}

// Wilson computes the Wilson score interval for a binomial proportion at
// confidence level given by z (1.96 for 95%). It is well behaved for small
// counts and proportions near 0 or 1, which is exactly the regime of
// application failure probabilities.
func Wilson(successes, trials int, z float64) (Proportion, error) {
	if trials <= 0 {
		return Proportion{}, fmt.Errorf("stats: wilson interval needs trials > 0, got %d", trials)
	}
	if successes < 0 || successes > trials {
		return Proportion{}, fmt.Errorf("stats: successes %d outside [0,%d]", successes, trials)
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	lo := center - half
	hi := center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Proportion{Successes: successes, Trials: trials, P: p, Lo: lo, Hi: hi}, nil
}

// ExpFit is a fitted exponential distribution.
type ExpFit struct {
	// Rate is the MLE lambda = 1/mean.
	Rate float64
	// MTBF is the mean, in the sample's unit.
	MTBF float64
}

// FitExponential fits an exponential distribution by maximum likelihood.
// All samples must be positive.
func FitExponential(xs []float64) (ExpFit, error) {
	if len(xs) == 0 {
		return ExpFit{}, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return ExpFit{}, fmt.Errorf("stats: exponential fit needs positive samples, got %v", x)
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	return ExpFit{Rate: 1 / mean, MTBF: mean}, nil
}

// WeibullFit is a fitted Weibull distribution with shape k and scale lambda.
// Shape < 1 indicates a decreasing hazard (infant mortality); shape > 1 an
// increasing hazard (wear-out); shape == 1 reduces to the exponential.
type WeibullFit struct {
	Shape float64
	Scale float64
}

// FitWeibull fits a two-parameter Weibull by maximum likelihood using
// Newton iteration on the profile likelihood for the shape parameter.
// All samples must be positive.
func FitWeibull(xs []float64) (WeibullFit, error) {
	if len(xs) < 2 {
		return WeibullFit{}, fmt.Errorf("stats: weibull fit needs >= 2 samples, got %d", len(xs))
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return WeibullFit{}, fmt.Errorf("stats: weibull fit needs positive samples, got %v", x)
		}
		logs[i] = math.Log(x)
	}
	meanLog := Mean(logs)

	// Solve g(k) = sum(x^k log x)/sum(x^k) - 1/k - meanLog = 0.
	k := 1.0
	for iter := 0; iter < 100; iter++ {
		var sxk, sxklx, sxklx2 float64
		for i, x := range xs {
			xk := math.Pow(x, k)
			sxk += xk
			sxklx += xk * logs[i]
			sxklx2 += xk * logs[i] * logs[i]
		}
		g := sxklx/sxk - 1/k - meanLog
		// g'(k) = [sxklx2*sxk - sxklx^2]/sxk^2 + 1/k^2
		gp := (sxklx2*sxk-sxklx*sxklx)/(sxk*sxk) + 1/(k*k)
		step := g / gp
		k -= step
		if k <= 1e-6 {
			k = 1e-6
		}
		if math.Abs(step) < 1e-10 {
			break
		}
	}
	if math.IsNaN(k) || math.IsInf(k, 0) {
		return WeibullFit{}, errors.New("stats: weibull shape estimate diverged")
	}
	var sxk float64
	for _, x := range xs {
		sxk += math.Pow(x, k)
	}
	scale := math.Pow(sxk/float64(len(xs)), 1/k)
	return WeibullFit{Shape: k, Scale: scale}, nil
}

// Mean returns the mean of the fitted Weibull.
func (w WeibullFit) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// LognormalFit is a fitted lognormal distribution with parameters Mu and
// Sigma of the underlying normal.
type LognormalFit struct {
	Mu    float64
	Sigma float64
}

// FitLognormal fits a lognormal distribution by maximum likelihood.
func FitLognormal(xs []float64) (LognormalFit, error) {
	if len(xs) < 2 {
		return LognormalFit{}, fmt.Errorf("stats: lognormal fit needs >= 2 samples, got %d", len(xs))
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return LognormalFit{}, fmt.Errorf("stats: lognormal fit needs positive samples, got %v", x)
		}
		logs[i] = math.Log(x)
	}
	mu := Mean(logs)
	var ss float64
	for _, l := range logs {
		d := l - mu
		ss += d * d
	}
	return LognormalFit{Mu: mu, Sigma: math.Sqrt(ss / float64(len(logs)))}, nil
}

// Mean returns the mean of the fitted lognormal.
func (l LognormalFit) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Median returns the median of the fitted lognormal.
func (l LognormalFit) Median() float64 { return math.Exp(l.Mu) }

// KMPoint is one step of a Kaplan-Meier survival curve.
type KMPoint struct {
	Time     float64
	Survival float64
	AtRisk   int
	Events   int
}

// KaplanMeier estimates the survival function from possibly right-censored
// observations. times[i] is the observation time and events[i] reports
// whether the event (failure) occurred (true) or the observation was
// censored (false, e.g. the run completed without interruption).
func KaplanMeier(times []float64, events []bool) ([]KMPoint, error) {
	if len(times) == 0 {
		return nil, ErrEmpty
	}
	if len(times) != len(events) {
		return nil, fmt.Errorf("stats: kaplan-meier got %d times and %d event flags", len(times), len(events))
	}
	type obs struct {
		t float64
		e bool
	}
	all := make([]obs, len(times))
	for i := range times {
		if times[i] < 0 {
			return nil, fmt.Errorf("stats: kaplan-meier time %v < 0", times[i])
		}
		all[i] = obs{times[i], events[i]}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t < all[j].t })

	var out []KMPoint
	surv := 1.0
	atRisk := len(all)
	i := 0
	for i < len(all) {
		t := all[i].t
		var d, c int
		for i < len(all) && all[i].t == t {
			if all[i].e {
				d++
			} else {
				c++
			}
			i++
		}
		if d > 0 {
			surv *= 1 - float64(d)/float64(atRisk)
			out = append(out, KMPoint{Time: t, Survival: surv, AtRisk: atRisk, Events: d})
		}
		atRisk -= d + c
	}
	return out, nil
}
