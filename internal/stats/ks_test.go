package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestKSStatisticEmptyInput(t *testing.T) {
	if _, err := KSStatistic(nil, ExpCDF(1)); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestKSAcceptsTrueDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / 0.5 // exponential with rate 0.5
	}
	d, err := KSStatistic(xs, ExpCDF(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if crit := ksCritical(n, 0.05); d > crit {
		t.Errorf("true distribution rejected: D=%v > crit=%v", d, crit)
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / 0.5
	}
	d, err := KSStatistic(xs, ExpCDF(2.0)) // 4x wrong rate
	if err != nil {
		t.Fatal(err)
	}
	if crit := ksCritical(n, 0.05); d <= crit {
		t.Errorf("wrong distribution accepted: D=%v <= crit=%v", d, crit)
	}
}

func TestKSDistinguishesWeibullFromExponential(t *testing.T) {
	// Bursty (shape 0.5) Weibull data: the fitted Weibull must beat the
	// fitted exponential on the KS statistic.
	rng := rand.New(rand.NewSource(23))
	const n = 4000
	xs := sampleWeibull(rng, 0.5, 10, n)

	expFit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	wbFit, err := FitWeibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	dExp, err := KSStatistic(xs, ExpCDF(expFit.Rate))
	if err != nil {
		t.Fatal(err)
	}
	dWb, err := KSStatistic(xs, WeibullCDF(wbFit.Shape, wbFit.Scale))
	if err != nil {
		t.Fatal(err)
	}
	if dWb >= dExp {
		t.Errorf("weibull fit D=%v should beat exponential D=%v on bursty data", dWb, dExp)
	}
	if dWb > ksCritical(n, 0.01) {
		t.Errorf("fitted weibull rejected on its own data: D=%v", dWb)
	}
}

// ksCritical returns the asymptotic critical value of the KS statistic at
// significance alpha (0.05 or 0.01) for sample size n (valid for n >= ~35).
func ksCritical(n int, alpha float64) float64 {
	c := 1.358
	if alpha <= 0.01 {
		c = 1.628
	}
	return c / math.Sqrt(float64(n))
}

func TestCDFHelpers(t *testing.T) {
	exp := ExpCDF(1)
	if exp(-1) != 0 || exp(0) != 0 {
		t.Error("ExpCDF not zero at/below origin")
	}
	if got := exp(math.Log(2)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ExpCDF(ln 2) = %v, want 0.5", got)
	}
	wb := WeibullCDF(1, 1) // reduces to Exp(1)
	for _, x := range []float64{0.1, 1, 3} {
		if math.Abs(wb(x)-exp(x)) > 1e-12 {
			t.Errorf("Weibull(1,1)(%v) = %v != Exp(1)(%v) = %v", x, wb(x), x, exp(x))
		}
	}
}

func TestKSStatisticBounds(t *testing.T) {
	// D is always in [0, 1].
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		d, err := KSStatistic(xs, ExpCDF(1))
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 || d > 1 {
			t.Fatalf("D = %v outside [0,1]", d)
		}
	}
}
