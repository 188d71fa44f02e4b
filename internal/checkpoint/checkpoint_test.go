package checkpoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Params{MTTIHours: 10, CheckpointHours: 0.1, RestartHours: 0.2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{MTTIHours: 0, CheckpointHours: 0.1},
		{MTTIHours: 10, CheckpointHours: 0},
		{MTTIHours: 10, CheckpointHours: 0.1, RestartHours: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
}

func TestYoungIntervalKnownValue(t *testing.T) {
	// MTTI 8h, checkpoint 4 minutes: tau = sqrt(2 * (1/15) * 8) ~ 1.033h.
	p := Params{MTTIHours: 8, CheckpointHours: 1.0 / 15}
	got, err := YoungInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * (1.0 / 15) * 8)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Young = %v, want %v", got, want)
	}
}

func TestDalyReducesToYoungForSmallCost(t *testing.T) {
	p := Params{MTTIHours: 100, CheckpointHours: 0.001}
	young, err := YoungInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	daly, err := DalyInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(daly-young)/young > 0.02 {
		t.Errorf("Daly %v should approach Young %v for tiny checkpoint cost", daly, young)
	}
}

func TestDalyLargeCostClamp(t *testing.T) {
	p := Params{MTTIHours: 1, CheckpointHours: 3}
	got, err := DalyInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != p.MTTIHours {
		t.Errorf("Daly with d >= 2M should clamp to MTTI, got %v", got)
	}
}

func TestEfficiencyShape(t *testing.T) {
	p := Params{MTTIHours: 10, CheckpointHours: 0.1, RestartHours: 0.1}
	daly, err := DalyInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	effOpt, err := Efficiency(p, daly)
	if err != nil {
		t.Fatal(err)
	}
	if effOpt <= 0 || effOpt >= 1 {
		t.Fatalf("efficiency at optimum = %v", effOpt)
	}
	// The optimum must beat both a much shorter and a much longer interval.
	for _, tau := range []float64{daly / 10, daly * 10} {
		eff, err := Efficiency(p, tau)
		if err != nil {
			t.Fatal(err)
		}
		if eff >= effOpt {
			t.Errorf("Efficiency(%v) = %v >= optimum %v", tau, eff, effOpt)
		}
	}
}

func TestEfficiencyErrors(t *testing.T) {
	p := Params{MTTIHours: 10, CheckpointHours: 0.1}
	if _, err := Efficiency(p, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Efficiency(Params{}, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestEfficiencyImprovesWithMTTI(t *testing.T) {
	// Healthier machine -> higher achievable efficiency at the optimum.
	prev := 0.0
	for _, mtti := range []float64{1, 5, 25, 125} {
		p := Params{MTTIHours: mtti, CheckpointHours: 0.1, RestartHours: 0.1}
		tau, err := DalyInterval(p)
		if err != nil {
			t.Fatal(err)
		}
		eff, err := Efficiency(p, tau)
		if err != nil {
			t.Fatal(err)
		}
		if eff <= prev {
			t.Fatalf("efficiency %v at MTTI %v not above %v", eff, mtti, prev)
		}
		prev = eff
	}
}

func TestBuildPlan(t *testing.T) {
	p := Params{MTTIHours: 6, CheckpointHours: 0.2, RestartHours: 0.3}
	plan, err := BuildPlan(p, 24)
	if err != nil {
		t.Fatal(err)
	}
	if plan.YoungHours <= 0 || plan.DalyHours <= 0 {
		t.Errorf("plan intervals: %+v", plan)
	}
	if plan.EfficiencyAtDaly <= plan.EfficiencyUnprotected {
		t.Errorf("checkpointing (%v) should beat running a 24h job unprotected (%v) at MTTI 6h",
			plan.EfficiencyAtDaly, plan.EfficiencyUnprotected)
	}
	wantUnprotected := math.Exp(-24.0 / 6)
	if math.Abs(plan.EfficiencyUnprotected-wantUnprotected) > 1e-12 {
		t.Errorf("unprotected survival = %v, want %v", plan.EfficiencyUnprotected, wantUnprotected)
	}
	if _, err := BuildPlan(p, 0); err == nil {
		t.Error("zero reference run accepted")
	}
	if _, err := BuildPlan(Params{}, 24); err == nil {
		t.Error("invalid params accepted")
	}
}

// Property: Daly's interval maximizes the modeled efficiency to within the
// model's resolution against a coarse grid search.
func TestDalyNearOptimalProperty(t *testing.T) {
	f := func(mttiSeed, costSeed uint8) bool {
		mtti := 1 + float64(mttiSeed%40)      // 1..41 hours
		cost := 0.01 + float64(costSeed)/2000 // 0.01..0.14 hours
		p := Params{MTTIHours: mtti, CheckpointHours: cost, RestartHours: cost}
		daly, err := DalyInterval(p)
		if err != nil {
			return false
		}
		effDaly, err := Efficiency(p, daly)
		if err != nil {
			return false
		}
		// Grid search for a better interval.
		best := effDaly
		for tau := daly / 4; tau <= daly*4; tau *= 1.15 {
			eff, err := Efficiency(p, tau)
			if err != nil {
				return false
			}
			if eff > best {
				best = eff
			}
		}
		// The closed form must be within 2% relative of the grid optimum.
		return (best-effDaly)/best < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
