package logdiver_test

// Calibration acceptance test: the headline claim of this reproduction is
// that the analysis pipeline, run over synthesized raw logs on the full
// Blue Waters topology, *measures* the paper's anchored numbers. This test
// generates ~100 days of production (a fifth of the paper's span), writes
// the three archives, analyzes their bytes and asserts every anchor within
// generous statistical bands. It takes several seconds; skip with -short.

import (
	"testing"

	"logdiver"
)

// fullDataset caches the expensive full-topology dataset across subtests.
func fullDataset(t *testing.T) (*logdiver.Dataset, *logdiver.Result) {
	t.Helper()
	cfg := logdiver.ScaledGeneratorConfig(100)
	cfg.Seed = 12345
	ds, err := logdiver.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, analyzeDataset(t, ds)
}

func probeP(t *testing.T, runs []logdiver.AttributedRun, class logdiver.NodeClass, lo, hi int) (float64, int) {
	t.Helper()
	var n, f int
	for _, r := range runs {
		if r.Class != class || r.NumNodes() < lo || r.NumNodes() >= hi {
			continue
		}
		n++
		if r.Outcome == logdiver.OutcomeSystemFailure {
			f++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(f) / float64(n), n
}

func TestCalibrationAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs the full topology; skipped in -short")
	}
	ds, res := fullDataset(t)

	t.Run("headline fractions", func(t *testing.T) {
		b := logdiver.Outcomes(res.Runs)
		t.Logf("%d runs: system-failure fraction %.6f, lost node-hours fraction %.6f",
			b.Total, b.SystemFailureFraction(), b.SystemNodeHoursFraction())
		if got := b.SystemFailureFraction(); got < 0.008 || got > 0.024 {
			t.Errorf("system-failure fraction = %.4f, want near anchor %.4f (band [0.008,0.024])",
				got, logdiver.AnchorSystemFraction)
		}
		if got := b.SystemNodeHoursFraction(); got < 0.035 || got > 0.14 {
			t.Errorf("lost node-hours fraction = %.4f, want near anchor %.2f (band [0.035,0.14])",
				got, logdiver.AnchorLostNodeHours)
		}
	})

	t.Run("XE scaling curve", func(t *testing.T) {
		pMid, nMid := probeP(t, res.Runs, logdiver.ClassXE, 9000, 11000)
		pFull, nFull := probeP(t, res.Runs, logdiver.ClassXE, 19000, 23000)
		t.Logf("P(XE ~10k) %.6f over %d runs, P(XE full) %.6f over %d runs", pMid, nMid, pFull, nFull)
		if nMid < 50 || nFull < 50 {
			t.Fatalf("too few probe runs: mid=%d full=%d", nMid, nFull)
		}
		if pFull < 0.07 || pFull > 0.30 {
			t.Errorf("P(XE full scale) = %.3f over %d runs, want near anchor %.3f",
				pFull, nFull, logdiver.AnchorXEProb22k)
		}
		if pMid > 0.05 {
			t.Errorf("P(XE ~10k) = %.3f over %d runs, want near anchor %.3f",
				pMid, nMid, logdiver.AnchorXEProb10k)
		}
		// The paper's lesson: dramatic amplification at full scale.
		floor := pMid
		if floor < 0.004 {
			floor = 0.004
		}
		if pFull/floor < 3 {
			t.Errorf("XE amplification %.1fx (%.3f -> %.3f), want >= 3x (paper: 20x)",
				pFull/floor, pMid, pFull)
		}
	})

	t.Run("XK scaling curve", func(t *testing.T) {
		pMid, nMid := probeP(t, res.Runs, logdiver.ClassXK, 1800, 2200)
		pFull, nFull := probeP(t, res.Runs, logdiver.ClassXK, 4000, 4300)
		t.Logf("P(XK ~2k) %.6f over %d runs, P(XK full) %.6f over %d runs", pMid, nMid, pFull, nFull)
		if nMid < 30 || nFull < 30 {
			t.Fatalf("too few probe runs: mid=%d full=%d", nMid, nFull)
		}
		if pFull < 0.05 || pFull > 0.27 {
			t.Errorf("P(XK full scale) = %.3f over %d runs, want near anchor %.3f",
				pFull, nFull, logdiver.AnchorXKProb4224)
		}
		if pMid > 0.07 {
			t.Errorf("P(XK ~2k) = %.3f over %d runs, want near anchor %.3f",
				pMid, nMid, logdiver.AnchorXKProb2k)
		}
		if pFull <= pMid {
			t.Errorf("XK curve not increasing: %.3f -> %.3f", pMid, pFull)
		}
	})

	t.Run("hybrid detection gap", func(t *testing.T) {
		truth := trueSystemFailures(ds)
		xe := logdiver.DetectionCoverage(res.Runs, truth, logdiver.ClassXE)
		if xe.Rate() < 0.9 {
			t.Errorf("XE detection coverage = %.3f, want >= 0.9 (CPU errors are logged)", xe.Rate())
		}
		// The gap concentrates at scale, where GPU failures dominate the
		// XK failure mix.
		var xkFull []logdiver.AttributedRun
		for _, r := range res.Runs {
			if r.Class == logdiver.ClassXK && r.NumNodes() >= 3000 {
				xkFull = append(xkFull, r)
			}
		}
		xk := logdiver.DetectionCoverage(xkFull, truth, logdiver.ClassXK)
		t.Logf("coverage XE %.6f %+v, full-scale XK %.6f %+v", xe.Rate(), xe, xk.Rate(), xk)
		if xk.TrueSystem < 20 {
			t.Fatalf("too few full-scale XK system failures: %d", xk.TrueSystem)
		}
		if xk.Rate() >= xe.Rate() {
			t.Errorf("full-scale XK coverage %.3f >= XE coverage %.3f: detection gap missing",
				xk.Rate(), xe.Rate())
		}
		if xk.Rate() > 0.92 {
			t.Errorf("full-scale XK coverage %.3f, want < 0.92 (silent GPU deaths)", xk.Rate())
		}
	})

	t.Run("attribution accuracy", func(t *testing.T) {
		var trueSys, attributed, correct int
		for _, r := range res.Runs {
			isTrue := ds.Truth[r.ApID].Outcome == logdiver.OutcomeSystemFailure
			isAttr := r.Outcome == logdiver.OutcomeSystemFailure
			if isTrue {
				trueSys++
			}
			if isAttr {
				attributed++
				if isTrue {
					correct++
				}
			}
		}
		if trueSys == 0 || attributed == 0 {
			t.Fatal("no system failures to evaluate")
		}
		prec := float64(correct) / float64(attributed)
		t.Logf("precision %.6f (%d of %d attributed; %d truly system)", prec, correct, attributed, trueSys)
		if prec < 0.8 {
			t.Errorf("attribution precision = %.3f, want >= 0.8", prec)
		}
	})
}
