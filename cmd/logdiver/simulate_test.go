package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSimulateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	policyPath := filepath.Join(dir, "policies.conf")
	policies := `
[policy daly]
checkpoint = daly
checkpoint-cost = 7m
restart-cost = 12m
retry-limit = 2
retry-backoff = 5m

[policy detect]
detect-fraction = 0.8
`
	if err := os.WriteFile(policyPath, []byte(policies), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runCapture(t, []string{
		"simulate",
		"-accounting", filepath.Join(dir, "accounting.log"),
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-syslog", filepath.Join(dir, "syslog.log"),
		"-machine", "small",
		"-policy", policyPath,
		"-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"W1", "W2", "W3",
		"Counterfactual outcome shift",
		"Node-hour economics",
		"Recovery by scale bucket",
		"measured-baseline", "daly", "detect",
		"RECOVERED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	// The md and csv formats render without error.
	for _, format := range []string{"md", "csv"} {
		if _, err := runCapture(t, []string{
			"simulate",
			"-apsys", filepath.Join(dir, "apsys.log"),
			"-syslog", filepath.Join(dir, "syslog.log"),
			"-machine", "small",
			"-policy", policyPath,
			"-format", format,
		}); err != nil {
			t.Errorf("format %s: %v", format, err)
		}
	}
}

// TestSimulateDeterministicJSON pins the CLI-level reproducibility claim:
// same archive and seed emit byte-identical JSON. Invariance under the
// worker count is whatif's own test (TestHypothesisParallelismInvariant).
func TestSimulateDeterministicJSON(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	args := []string{
		"simulate",
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-syslog", filepath.Join(dir, "syslog.log"),
		"-machine", "small",
		"-checkpoint", "daly",
		"-checkpoint-cost", "7m",
		"-restart-cost", "12m",
		"-retry-limit", "1",
		"-seed", "11",
		"-json",
	}
	out1, err := runCapture(t, args)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := runCapture(t, args)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Error("same seed produced different JSON on a second run")
	}
	if !strings.Contains(out1, `"seed": 11`) {
		t.Error("JSON report missing seed")
	}
}

func TestSimulateInlinePolicy(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	out, err := runCapture(t, []string{
		"simulate",
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-syslog", filepath.Join(dir, "syslog.log"),
		"-machine", "small",
		"-name", "mine",
		"-retry-limit", "2",
		"-retry-backoff", "5m",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mine") {
		t.Error("inline policy name missing from tables")
	}

	// No policy flags at all: the default policy set runs.
	out, err = runCapture(t, []string{
		"simulate",
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-syslog", filepath.Join(dir, "syslog.log"),
		"-machine", "small",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"daly-checkpoint", "gpu-detect"} {
		if !strings.Contains(out, want) {
			t.Errorf("default policy set missing %q", want)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	apsys := filepath.Join(dir, "apsys.log")

	if err := run([]string{"simulate"}); err == nil {
		t.Error("simulate without -apsys accepted")
	}
	if err := run([]string{"simulate", "-apsys", apsys, "-machine", "bogus"}); err == nil {
		t.Error("bogus machine accepted")
	}
	if err := run([]string{"simulate", "-apsys", apsys, "-machine", "small",
		"-policy", "/does/not/exist"}); err == nil {
		t.Error("missing policy file accepted")
	}
	if err := run([]string{"simulate", "-apsys", apsys, "-machine", "small",
		"-policy", apsys, "-retry-limit", "2"}); err == nil {
		t.Error("-policy plus inline flags accepted")
	}
	if err := run([]string{"simulate", "-apsys", apsys, "-machine", "small",
		"-checkpoint", "sometimes"}); err == nil {
		t.Error("bad checkpoint kind accepted")
	}
	if err := run([]string{"simulate", "-apsys", apsys, "-machine", "small",
		"-detect-fraction", "1.5"}); err == nil {
		t.Error("out-of-range detect fraction accepted")
	}
	if err := run([]string{"simulate", "-apsys", apsys, "-machine", "small",
		"-format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
}
