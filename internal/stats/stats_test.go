package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummarizeBasics(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("unexpected summary %+v", s)
	}
	if !almostEqual(s.StdDev, math.Sqrt(2.5), 1e-12) {
		t.Errorf("StdDev = %v, want sqrt(2.5)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.StdDev != 0 || s.Median != 7 || s.P99 != 7 {
		t.Errorf("unexpected single-sample summary %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

// quantile is the interpolated order statistic Summarize reports, taken of
// an unsorted sample.
func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 40},
		{0.5, 25},
		{0.25, 17.5},
	}
	for _, tt := range tests {
		if got := quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				return true
			}
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return quantile(raw, qa) <= quantile(raw, qb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestWilson(t *testing.T) {
	p, err := Wilson(10, 100, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 0.1 {
		t.Errorf("P = %v, want 0.1", p.P)
	}
	if !(p.Lo < p.P && p.P < p.Hi) {
		t.Errorf("interval [%v,%v] does not bracket %v", p.Lo, p.Hi, p.P)
	}
	// Known value: Wilson 95% for 10/100 is about [0.0552, 0.1744].
	if !almostEqual(p.Lo, 0.0552, 0.002) || !almostEqual(p.Hi, 0.1744, 0.002) {
		t.Errorf("interval [%v,%v], want about [0.0552,0.1744]", p.Lo, p.Hi)
	}
}

func TestWilsonEdgeCases(t *testing.T) {
	zero, err := Wilson(0, 50, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Lo != 0 || zero.P != 0 || zero.Hi <= 0 {
		t.Errorf("Wilson(0,50) = %+v", zero)
	}
	full, err := Wilson(50, 50, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if full.Hi != 1 || full.P != 1 || full.Lo >= 1 {
		t.Errorf("Wilson(50,50) = %+v", full)
	}
	if _, err := Wilson(1, 0, 1.96); err == nil {
		t.Error("Wilson with 0 trials succeeded")
	}
	if _, err := Wilson(-1, 10, 1.96); err == nil {
		t.Error("Wilson with negative successes succeeded")
	}
	if _, err := Wilson(11, 10, 1.96); err == nil {
		t.Error("Wilson with successes > trials succeeded")
	}
}

func TestWilsonBracketsProperty(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n%1000) + 1
		succ := int(s) % (trials + 1)
		p, err := Wilson(succ, trials, 1.96)
		if err != nil {
			return false
		}
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.P+1e-12 && p.P <= p.Hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestFitExponentialRecoversRate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const lambda = 0.25
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / lambda
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Rate, lambda, 0.01) {
		t.Errorf("Rate = %v, want about %v", fit.Rate, lambda)
	}
	if !almostEqual(fit.MTBF, 1/lambda, 0.2) {
		t.Errorf("MTBF = %v, want about %v", fit.MTBF, 1/lambda)
	}
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err != ErrEmpty {
		t.Error("empty sample should return ErrEmpty")
	}
	if _, err := FitExponential([]float64{1, -2}); err == nil {
		t.Error("negative sample succeeded")
	}
}

func sampleWeibull(rng *rand.Rand, shape, scale float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		u := rng.Float64()
		xs[i] = scale * math.Pow(-math.Log(1-u), 1/shape)
	}
	return xs
}

func TestFitWeibullRecoversParameters(t *testing.T) {
	tests := []struct{ shape, scale float64 }{
		{0.7, 100}, // infant mortality regime
		{1.0, 50},
		{1.8, 200}, // wear-out regime
	}
	rng := rand.New(rand.NewSource(11))
	for _, tt := range tests {
		xs := sampleWeibull(rng, tt.shape, tt.scale, 30000)
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatalf("FitWeibull(shape=%v): %v", tt.shape, err)
		}
		if math.Abs(fit.Shape-tt.shape)/tt.shape > 0.05 {
			t.Errorf("shape = %v, want about %v", fit.Shape, tt.shape)
		}
		if math.Abs(fit.Scale-tt.scale)/tt.scale > 0.05 {
			t.Errorf("scale = %v, want about %v", fit.Scale, tt.scale)
		}
	}
}

func TestFitWeibullErrors(t *testing.T) {
	if _, err := FitWeibull([]float64{1}); err == nil {
		t.Error("single sample succeeded")
	}
	if _, err := FitWeibull([]float64{1, 0}); err == nil {
		t.Error("zero sample succeeded")
	}
}

func TestWeibullMeanExponentialCase(t *testing.T) {
	w := WeibullFit{Shape: 1, Scale: 42}
	if !almostEqual(w.Mean(), 42, 1e-9) {
		t.Errorf("Mean = %v, want 42", w.Mean())
	}
}

func TestFitLognormalRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const mu, sigma = 2.0, 0.8
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = math.Exp(mu + sigma*rng.NormFloat64())
	}
	fit, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Mu, mu, 0.03) || !almostEqual(fit.Sigma, sigma, 0.03) {
		t.Errorf("fit = %+v, want mu=%v sigma=%v", fit, mu, sigma)
	}
	if !almostEqual(fit.Median(), math.Exp(mu), 0.5) {
		t.Errorf("Median = %v, want about %v", fit.Median(), math.Exp(mu))
	}
	wantMean := math.Exp(mu + sigma*sigma/2)
	if math.Abs(fit.Mean()-wantMean)/wantMean > 0.05 {
		t.Errorf("Mean = %v, want about %v", fit.Mean(), wantMean)
	}
}

func TestFitLognormalErrors(t *testing.T) {
	if _, err := FitLognormal([]float64{1}); err == nil {
		t.Error("single sample succeeded")
	}
	if _, err := FitLognormal([]float64{1, -1}); err == nil {
		t.Error("negative sample succeeded")
	}
}

func TestKaplanMeierNoCensoring(t *testing.T) {
	// Without censoring, KM equals the empirical survival function.
	times := []float64{1, 2, 3, 4}
	events := []bool{true, true, true, true}
	km, err := KaplanMeier(times, events)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.75, 0.5, 0.25, 0}
	if len(km) != 4 {
		t.Fatalf("got %d points, want 4", len(km))
	}
	for i, p := range km {
		if !almostEqual(p.Survival, want[i], 1e-12) {
			t.Errorf("S(%v) = %v, want %v", p.Time, p.Survival, want[i])
		}
	}
}

func TestKaplanMeierWithCensoring(t *testing.T) {
	// Classic worked example: events at 1 and 3; censored at 2 and 4.
	times := []float64{1, 2, 3, 4}
	events := []bool{true, false, true, false}
	km, err := KaplanMeier(times, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(km) != 2 {
		t.Fatalf("got %d event points, want 2", len(km))
	}
	if !almostEqual(km[0].Survival, 0.75, 1e-12) {
		t.Errorf("S(1) = %v, want 0.75", km[0].Survival)
	}
	// After censoring at t=2, 2 remain at risk at t=3: S = 0.75 * (1-1/2).
	if !almostEqual(km[1].Survival, 0.375, 1e-12) {
		t.Errorf("S(3) = %v, want 0.375", km[1].Survival)
	}
}

func TestKaplanMeierTiedTimes(t *testing.T) {
	times := []float64{5, 5, 5, 5}
	events := []bool{true, true, false, false}
	km, err := KaplanMeier(times, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(km) != 1 || !almostEqual(km[0].Survival, 0.5, 1e-12) {
		t.Errorf("km = %+v, want single point with S=0.5", km)
	}
	if km[0].AtRisk != 4 || km[0].Events != 2 {
		t.Errorf("km[0] = %+v", km[0])
	}
}

func TestKaplanMeierErrors(t *testing.T) {
	if _, err := KaplanMeier(nil, nil); err != ErrEmpty {
		t.Error("empty input should return ErrEmpty")
	}
	if _, err := KaplanMeier([]float64{1}, []bool{true, false}); err == nil {
		t.Error("length mismatch succeeded")
	}
	if _, err := KaplanMeier([]float64{-1}, []bool{true}); err == nil {
		t.Error("negative time succeeded")
	}
}

func TestKaplanMeierMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 2
		times := make([]float64, count)
		events := make([]bool, count)
		for i := range times {
			times[i] = rng.Float64() * 100
			events[i] = rng.Intn(2) == 0
		}
		km, err := KaplanMeier(times, events)
		if err != nil {
			return false
		}
		prev := 1.0
		for _, p := range km {
			if p.Survival > prev+1e-12 || p.Survival < 0 {
				return false
			}
			prev = p.Survival
		}
		return sort.SliceIsSorted(km, func(i, j int) bool { return km[i].Time < km[j].Time })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}
