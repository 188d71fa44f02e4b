package rulecheck_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"logdiver/internal/rulecheck"
	"logdiver/internal/taxonomy"
)

// mk builds an in-memory rule (Line 0).
func mk(name, pat string, cat taxonomy.Category, sev taxonomy.Severity) taxonomy.Rule {
	return taxonomy.Rule{Name: name, Pattern: regexp.MustCompile(pat), Category: cat, Severity: sev}
}

// findingsOf filters the findings produced for rules down to one check id.
func findingsOf(fs []rulecheck.Finding, check string) []rulecheck.Finding {
	var out []rulecheck.Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// TestChecksTableDriven exercises every lint class with at least one
// positive and one negative case. The corpus is injected explicitly so the
// differential checks are fully deterministic.
func TestChecksTableDriven(t *testing.T) {
	ueMsg := "Machine Check Exception: uncorrected DRAM error on c0-0c0s0n0 bank 1"
	tests := []struct {
		name   string
		rules  []taxonomy.Rule
		corpus []string
		check  string // check id under test
		// wantRules are the rule names expected to be flagged by check, in
		// order; empty means the check must not fire at all.
		wantRules []string
		wantSev   rulecheck.Severity
		// wantRelated, if set, is the Related rule expected on the first
		// finding.
		wantRelated string
	}{
		{
			name: "bad-name positive",
			rules: []taxonomy.Rule{
				mk("has space", `x`, taxonomy.KernelPanic, taxonomy.SevCritical),
				mk("ok", `y`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "bad-name", wantRules: []string{"has space"}, wantSev: rulecheck.Error,
		},
		{
			name: "bad-name negative",
			rules: []taxonomy.Rule{
				mk("CRIT-watcher.v2", `x`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "bad-name",
		},
		{
			name: "dup-name positive",
			rules: []taxonomy.Rule{
				mk("same", `aaa`, taxonomy.KernelPanic, taxonomy.SevCritical),
				mk("same", `bbb`, taxonomy.SoftwareOS, taxonomy.SevError),
			},
			check: "dup-name", wantRules: []string{"same"}, wantSev: rulecheck.Error,
			wantRelated: "same",
		},
		{
			name: "dup-name negative",
			rules: []taxonomy.Rule{
				mk("a", `aaa`, taxonomy.KernelPanic, taxonomy.SevCritical),
				mk("b", `bbb`, taxonomy.SoftwareOS, taxonomy.SevError),
			},
			check: "dup-name",
		},
		{
			name: "empty-match universal positive",
			rules: []taxonomy.Rule{
				mk("catchall", `.*`, taxonomy.SoftwareOS, taxonomy.SevInfo),
				mk("optional", `(error)?`, taxonomy.SoftwareOS, taxonomy.SevInfo),
				mk("nonempty-universal", `.+`, taxonomy.SoftwareOS, taxonomy.SevInfo),
			},
			check:     "empty-match",
			wantRules: []string{"catchall", "optional", "nonempty-universal"},
			wantSev:   rulecheck.Error,
		},
		{
			name: "empty-match anchored is warn only",
			rules: []taxonomy.Rule{
				mk("anchored-empty", `^(panic)?$`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "empty-match", wantRules: []string{"anchored-empty"}, wantSev: rulecheck.Warn,
		},
		{
			name: "empty-match negative",
			rules: []taxonomy.Rule{
				mk("plain", `kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "empty-match",
		},
		{
			name: "shadow-structural identical pattern",
			rules: []taxonomy.Rule{
				mk("first", `(?i)machine check`, taxonomy.HardwareMemoryUE, taxonomy.SevCritical),
				mk("second", `(?i)machine check`, taxonomy.HardwareMemoryCE, taxonomy.SevWarning),
			},
			check: "shadow-structural", wantRules: []string{"second"}, wantSev: rulecheck.Error,
			wantRelated: "first",
		},
		{
			name: "shadow-structural alternation branch",
			rules: []taxonomy.Rule{
				mk("both", `(?i)kernel panic|oops:`, taxonomy.KernelPanic, taxonomy.SevCritical),
				mk("branch", `(?i)kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "shadow-structural", wantRules: []string{"branch"}, wantSev: rulecheck.Error,
			wantRelated: "both",
		},
		{
			name: "shadow-structural literal containment",
			rules: []taxonomy.Rule{
				mk("broad", `(?i)kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
				mk("literal", `kernel panic - not syncing`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "shadow-structural", wantRules: []string{"literal"}, wantSev: rulecheck.Error,
			wantRelated: "broad",
		},
		{
			name: "shadow-structural respects anchors",
			rules: []taxonomy.Rule{
				// \b invalidates substring closure: "xkernel panicx" is
				// matched by the literal but not by the anchored rule, so
				// the literal is NOT contained and must not be flagged.
				mk("word", `\bkernel panic\b`, taxonomy.KernelPanic, taxonomy.SevCritical),
				mk("literal", `kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "shadow-structural",
		},
		{
			name: "shadow-structural negative disjoint",
			rules: []taxonomy.Rule{
				mk("a", `voltage fault`, taxonomy.HardwarePower, taxonomy.SevCritical),
				mk("b", `kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "shadow-structural",
		},
		{
			name: "shadow-differential corpus plus witnesses",
			rules: []taxonomy.Rule{
				mk("broad", `(?i)machine check`, taxonomy.HardwareMemoryUE, taxonomy.SevCritical),
				mk("narrow", `(?i)machine check exception.*uncorrected`, taxonomy.HardwareMemoryUE, taxonomy.SevCritical),
			},
			corpus: []string{ueMsg},
			check:  "shadow-differential", wantRules: []string{"narrow"}, wantSev: rulecheck.Error,
			wantRelated: "broad",
		},
		{
			name: "shadow-witness only",
			rules: []taxonomy.Rule{
				// narrow is kept non-literal so the structural containment
				// check cannot prove the shadowing; only its synthesized
				// witnesses reveal it.
				mk("broad", `zzz`, taxonomy.SoftwareOS, taxonomy.SevError),
				mk("narrow", `zzz(qqq|www)`, taxonomy.SoftwareOS, taxonomy.SevError),
			},
			corpus: []string{ueMsg},
			check:  "shadow-witness", wantRules: []string{"narrow"}, wantSev: rulecheck.Warn,
			wantRelated: "broad",
		},
		{
			name: "shadow-corpus only",
			rules: []taxonomy.Rule{
				mk("dram", `(?i)uncorrected DRAM`, taxonomy.HardwareMemoryUE, taxonomy.SevCritical),
				// Witness "machine check exception: uncorrected" is NOT
				// matched by "dram", so only the corpus shows the shadowing.
				mk("mce", `(?i)machine check exception: uncorrected`, taxonomy.HardwareMemoryUE, taxonomy.SevCritical),
			},
			corpus: []string{ueMsg},
			check:  "shadow-corpus", wantRules: []string{"mce"}, wantSev: rulecheck.Warn,
			wantRelated: "dram",
		},
		{
			name: "shadow differential negative: rule fires first on corpus",
			rules: []taxonomy.Rule{
				mk("other", `voltage fault`, taxonomy.HardwarePower, taxonomy.SevCritical),
				mk("mce", `(?i)machine check`, taxonomy.HardwareMemoryUE, taxonomy.SevCritical),
			},
			corpus: []string{ueMsg},
			check:  "shadow-corpus",
		},
		{
			name: "severity-mismatch benign at CRIT",
			rules: []taxonomy.Rule{
				mk("recovered", `node returned to service`, taxonomy.NodeRecovered, taxonomy.SevCritical),
			},
			check: "severity-mismatch", wantRules: []string{"recovered"}, wantSev: rulecheck.Error,
		},
		{
			name: "severity-mismatch fatal at INFO",
			rules: []taxonomy.Rule{
				mk("quiet-panic", `kernel panic`, taxonomy.KernelPanic, taxonomy.SevInfo),
			},
			check: "severity-mismatch", wantRules: []string{"quiet-panic"}, wantSev: rulecheck.Warn,
		},
		{
			name: "severity-mismatch negative",
			rules: []taxonomy.Rule{
				mk("recovered", `node returned to service`, taxonomy.NodeRecovered, taxonomy.SevInfo),
				mk("panic", `kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
			},
			check: "severity-mismatch",
		},
		{
			name: "superlinear positive",
			rules: []taxonomy.Rule{
				mk("nested", `(?i)(lockup+)+`, taxonomy.SoftwareOS, taxonomy.SevError),
			},
			check: "superlinear", wantRules: []string{"nested"}, wantSev: rulecheck.Warn,
		},
		{
			name: "superlinear negative sequential quantifiers",
			rules: []taxonomy.Rule{
				mk("seq", `a+b+c*`, taxonomy.SoftwareOS, taxonomy.SevError),
			},
			check: "superlinear",
		},
		{
			name: "regexp-on-hot-path positive",
			rules: []taxonomy.Rule{
				mk("exact", `(?i)timed? ?out.*(ost|mdt)[0-9a-f]*.*lost`, taxonomy.FilesystemTimeout, taxonomy.SevWarning),
				mk("cased", `kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
				mk("counted", `(?i)err[0-9]+ on lnet`, taxonomy.SoftwareOS, taxonomy.SevError),
				mk("unfiltered", `[0-9]{4}`, taxonomy.SoftwareOS, taxonomy.SevError),
			},
			check: "regexp-on-hot-path", wantRules: []string{"cased", "counted", "unfiltered"}, wantSev: rulecheck.Warn,
		},
		{
			name: "regexp-on-hot-path negative",
			rules: []taxonomy.Rule{
				mk("exact", `(?i)(blade|l0c?) (controller )?fault|double[- ]bit`, taxonomy.HardwareBlade, taxonomy.SevCritical),
			},
			check: "regexp-on-hot-path",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := rulecheck.CheckCorpus(tt.rules, tt.corpus)
			got := findingsOf(fs, tt.check)
			if len(tt.wantRules) == 0 {
				if len(got) != 0 {
					t.Fatalf("check %s fired unexpectedly: %v", tt.check, got)
				}
				return
			}
			if len(got) != len(tt.wantRules) {
				t.Fatalf("check %s: got %d findings %v, want rules %v", tt.check, len(got), got, tt.wantRules)
			}
			for i, f := range got {
				if f.Rule != tt.wantRules[i] {
					t.Errorf("finding %d names rule %q, want %q", i, f.Rule, tt.wantRules[i])
				}
				if f.Severity != tt.wantSev {
					t.Errorf("finding %d severity %v, want %v", i, f.Severity, tt.wantSev)
				}
			}
			if tt.wantRelated != "" && got[0].Related != tt.wantRelated {
				t.Errorf("finding related = %q, want %q", got[0].Related, tt.wantRelated)
			}
		})
	}
}

// TestCoverageGap needs its own table since the finding is rule-set-level.
func TestCoverageGap(t *testing.T) {
	fs := rulecheck.CheckCorpus([]taxonomy.Rule{
		mk("only-panic", `kernel panic`, taxonomy.KernelPanic, taxonomy.SevCritical),
	}, nil)
	gaps := findingsOf(fs, "coverage-gap")
	// Every category except KernelPanic is uncovered.
	if want := len(taxonomy.Categories()) - 1; len(gaps) != want {
		t.Fatalf("got %d coverage gaps, want %d", len(gaps), want)
	}
	var mentionsGPU bool
	for _, f := range gaps {
		if f.Severity != rulecheck.Warn {
			t.Errorf("coverage-gap severity %v, want warn", f.Severity)
		}
		if strings.Contains(f.Message, taxonomy.GPUMemoryDBE.String()) {
			mentionsGPU = true
		}
	}
	if !mentionsGPU {
		t.Error("no coverage-gap finding mentions GPU_DBE")
	}
	// Negative: the built-in set covers everything.
	full := rulecheck.CheckCorpus(taxonomy.Default().Rules(), nil)
	if gaps := findingsOf(full, "coverage-gap"); len(gaps) != 0 {
		t.Errorf("built-in set reported coverage gaps: %v", gaps)
	}
}

// TestBuiltinRulesClean is the tier-1 guard for the hot classification
// path: the shipped rule set must stay free of all findings, including
// warnings, under the full corpus-backed analysis.
func TestBuiltinRulesClean(t *testing.T) {
	fs := rulecheck.Check(taxonomy.Default().Rules())
	for _, f := range fs {
		t.Errorf("built-in rule set: %s", f)
	}
}

// TestShadowedRuleFile pins the acceptance scenario: a deliberately
// shadowed rule in a rule file is reported with the shadowing rule's name
// and both line numbers.
func TestShadowedRuleFile(t *testing.T) {
	f, err := os.Open("testdata/shadowed.rules")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rules, err := taxonomy.ReadRuleFile(f)
	if err != nil {
		t.Fatal(err)
	}
	fs := rulecheck.Check(rules)

	type want struct {
		check       string
		rule        string
		line        int
		severity    rulecheck.Severity
		related     string
		relatedLine int
	}
	wants := []want{
		{"shadow-structural", "mce-dup", 4, rulecheck.Error, "mce-wide", 3},
		{"shadow-structural", "panic-only", 6, rulecheck.Error, "panic-or-oops", 5},
		{"shadow-structural", "panic-lit", 7, rulecheck.Error, "panic-or-oops", 5},
		{"severity-mismatch", "recovered-crit", 8, rulecheck.Error, "", 0},
		{"superlinear", "lockup-nest", 9, rulecheck.Warn, "", 0},
		{"regexp-on-hot-path", "panic-lit", 7, rulecheck.Warn, "", 0},
		{"regexp-on-hot-path", "lockup-nest", 9, rulecheck.Warn, "", 0},
		{"regexp-on-hot-path", "catchall", 12, rulecheck.Warn, "", 0},
		{"dup-name", "dup-pair", 11, rulecheck.Error, "dup-pair", 10},
		{"empty-match", "catchall", 12, rulecheck.Error, "", 0},
	}
	for _, w := range wants {
		found := false
		for _, f := range fs {
			if f.Check != w.check || f.Rule != w.rule {
				continue
			}
			found = true
			if f.Line != w.line {
				t.Errorf("%s/%s: line %d, want %d", w.check, w.rule, f.Line, w.line)
			}
			if f.Severity != w.severity {
				t.Errorf("%s/%s: severity %v, want %v", w.check, w.rule, f.Severity, w.severity)
			}
			if w.related != "" && (f.Related != w.related || f.RelatedLine != w.relatedLine) {
				t.Errorf("%s/%s: related %q line %d, want %q line %d",
					w.check, w.rule, f.Related, f.RelatedLine, w.related, w.relatedLine)
			}
		}
		if !found {
			t.Errorf("expected finding %s on rule %q did not fire; got:\n%s", w.check, w.rule, renderAll(fs))
		}
	}
}

func renderAll(fs []rulecheck.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

func TestLoadClassifier(t *testing.T) {
	noWarn := func(f rulecheck.Finding) { t.Errorf("unexpected finding %s", f) }
	if cls, raw, err := rulecheck.LoadClassifier("", true, noWarn); cls != nil || raw != nil || err != nil {
		t.Errorf("empty path = %v, %q, %v; want the built-in taxonomy (all nil)", cls, raw, err)
	}

	// A warn-only rule set builds, and its warnings reach the caller.
	quiet := filepath.Join(t.TempDir(), "quiet.rules")
	if err := os.WriteFile(quiet, []byte("quiet-panic KERNEL_PANIC INFO kernel panic\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []rulecheck.Finding
	cls, _, err := rulecheck.LoadClassifier(quiet, true, func(f rulecheck.Finding) { warnings = append(warnings, f) })
	if err != nil || cls == nil {
		t.Fatalf("warn-only set: %v, %v; want it accepted", cls, err)
	}
	if len(findingsOf(warnings, "severity-mismatch")) == 0 {
		t.Errorf("warnings = %v, want the severity-mismatch warning", warnings)
	}
	if cat, _ := cls.ClassifyBytes([]byte("kernel panic - not syncing")); cat != taxonomy.KernelPanic {
		t.Errorf("classifier misclassifies: got %v", cat)
	}

	// An error finding rejects the set, naming the file, the first error
	// and the override.
	const path = "testdata/shadowed.rules"
	var warned int
	_, _, err = rulecheck.LoadClassifier(path, true, func(rulecheck.Finding) { warned++ })
	if err == nil {
		t.Fatalf("validated load of %s accepted", path)
	}
	for _, want := range []string{path, "6 error finding(s)", `[shadow-structural]`, `"mce-dup"`, "-validate-rules=false"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("validated load of %s: err = %v, want it to name %s", path, err, want)
		}
	}
	if warned == 0 {
		t.Error("rejected rule set reported no findings")
	}

	cls, raw, err := rulecheck.LoadClassifier(path, false, noWarn)
	if err != nil || cls == nil {
		t.Fatalf("unvalidated load: %v, %v", cls, err)
	}
	if want, _ := os.ReadFile(path); string(raw) != string(want) {
		t.Error("returned bytes are not the file's")
	}
	if cat, _ := cls.ClassifyBytes([]byte("Machine Check event")); cat != taxonomy.HardwareMemoryUE {
		t.Errorf("classifier misclassifies: got %v", cat)
	}

	if _, _, err := rulecheck.LoadClassifier(path+".missing", true, noWarn); err == nil {
		t.Error("missing rule file accepted")
	}
}
