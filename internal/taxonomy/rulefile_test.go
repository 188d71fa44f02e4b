package taxonomy_test

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"logdiver/internal/taxonomy"
)

func TestReadRulesBasic(t *testing.T) {
	input := `
# site-specific additions
gpu-thermal GPU_BUS CRIT (?i)gpu thermal shutdown
raid-fault FS_UNAVAIL ERROR raid array degraded
`
	rules, err := taxonomy.ReadRuleFile(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	cls := taxonomy.NewClassifier(rules)
	cat, sev := cls.Classify("GPU Thermal Shutdown initiated")
	if cat != taxonomy.GPUBusOff || sev != taxonomy.SevCritical {
		t.Errorf("got (%v,%v)", cat, sev)
	}
	cat, sev = cls.Classify("raid array degraded on oss12")
	if cat != taxonomy.FilesystemUnavail || sev != taxonomy.SevError {
		t.Errorf("got (%v,%v)", cat, sev)
	}
}

func TestReadRulesSeverityTokenInName(t *testing.T) {
	// A rule whose NAME contains a severity/category token must still
	// split correctly.
	input := "CRIT-watcher KERNEL_PANIC CRIT panic pattern here\n"
	rules, err := taxonomy.ReadRuleFile(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Name != "CRIT-watcher" {
		t.Errorf("Name = %q", rules[0].Name)
	}
	if got := rules[0].Pattern.String(); got != "panic pattern here" {
		t.Errorf("pattern = %q", got)
	}
}

func TestReadRulesRegexWithSpaces(t *testing.T) {
	input := "r1 KERNEL_PANIC CRIT kernel panic - not syncing\n"
	rules, err := taxonomy.ReadRuleFile(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := rules[0].Pattern.String(); got != "kernel panic - not syncing" {
		t.Errorf("pattern = %q", got)
	}
}

func TestReadRulesErrors(t *testing.T) {
	bad := []struct{ input, want string }{
		{"too few fields\n", "line 1: want 'name CATEGORY SEVERITY regex'"},
		{"r1 NOT_A_CATEGORY CRIT x\n", "line 1: unknown category"},
		{"r1 KERNEL_PANIC LOUD x\n", "line 1: unknown severity"},
		{"# c\nr1 KERNEL_PANIC CRIT [unclosed\n", "line 2: bad regex"},
		{"", "contains no rules"},
		{"# only\n ", "contains no rules"},
		{"r1 KERNEL_PANIC CRIT x\n\nr3 KERNEL_PANIC CRIT " + strings.Repeat("x", 1<<20) + "\n",
			"line 3: longer than 1 MiB"},
	}
	for _, tt := range bad {
		_, err := taxonomy.ReadRuleFile(strings.NewReader(tt.input))
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("ReadRuleFile(%.40q) = %v, want an error containing %q", tt.input, err, tt.want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	orig := taxonomy.Default().Rules()
	var buf strings.Builder
	if err := taxonomy.WriteRules(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := taxonomy.ReadRuleFile(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip %d rules, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i].Category != orig[i].Category || back[i].Severity != orig[i].Severity {
			t.Errorf("rule %d changed: %v/%v vs %v/%v", i,
				back[i].Category, back[i].Severity, orig[i].Category, orig[i].Severity)
		}
		if back[i].Pattern.String() != orig[i].Pattern.String() {
			t.Errorf("rule %d pattern changed", i)
		}
	}
	// The round-tripped classifier behaves identically on every template.
	a := taxonomy.NewClassifier(orig)
	b := taxonomy.NewClassifier(back)
	for _, msg := range []string{
		"Machine Check Exception: uncorrected DRAM error on c0-0c0s0n0 bank 1 addr 0x2",
		"NVRM: Xid (PCI:0000:02:00): 79, GPU has fallen off the bus.",
		"random chatter",
	} {
		ca, sa := a.Classify(msg)
		cb, sb := b.Classify(msg)
		if ca != cb || sa != sb {
			t.Errorf("classifiers disagree on %q: (%v,%v) vs (%v,%v)", msg, ca, sa, cb, sb)
		}
	}
}

func TestReadRuleFileLines(t *testing.T) {
	input := `
# comment
r1 KERNEL_PANIC CRIT panic

r2 HW_MEM_UE CRIT uncorrect(ed|able)
`
	rules, err := taxonomy.ReadRuleFile(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	if rules[0].Line != 3 || rules[1].Line != 5 {
		t.Errorf("lines = %d,%d, want 3,5", rules[0].Line, rules[1].Line)
	}
}

func TestWriteRulesRejectsUnparseableRules(t *testing.T) {
	mk := func(name, pat string) []taxonomy.Rule {
		return []taxonomy.Rule{{
			Name: name, Pattern: regexp.MustCompile(pat),
			Category: taxonomy.KernelPanic, Severity: taxonomy.SevCritical,
		}}
	}
	bad := []struct {
		label string
		rules []taxonomy.Rule
	}{
		{"space in name", mk("bad name", "x")},
		{"tab in name", mk("bad\tname", "x")},
		{"comment name", mk("#silent", "x")},
		{"empty pattern", mk("r", "")},
		{"newline in pattern", mk("r", "a\nb")},
		{"leading space in pattern", mk("r", " x")},
		{"nil pattern", []taxonomy.Rule{{Name: "r", Category: taxonomy.KernelPanic, Severity: taxonomy.SevCritical}}},
	}
	for _, tt := range bad {
		var buf strings.Builder
		if err := taxonomy.WriteRules(&buf, tt.rules); err == nil {
			t.Errorf("%s: WriteRules succeeded, want error (wrote %q)", tt.label, buf.String())
		}
	}
	// The same shapes must still be writable once sanitized.
	var buf strings.Builder
	if err := taxonomy.WriteRules(&buf, mk("good-name", `a\nb|[ ]x`)); err != nil {
		t.Errorf("sanitized rule rejected: %v", err)
	}
}

// TestWriteReadPropertyRoundTrip drives WriteRules→ReadRules with
// pseudo-random rule sets: every set WriteRules accepts must parse back to
// the identical names, categories, severities and pattern texts.
func TestWriteReadPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nameAlpha := []string{"r", "CRIT", "KERNEL_PANIC", "x-1", "a_b.c", "#tail", "0"}
	patterns := []string{
		`(?i)machine check.*uncorrected`, `a b c`, `x{1,3}`, `[0-9a-fx-]+`,
		`foo|bar baz`, `\bpanic\b`, `a\nb`, `lcb.*(lane|link)`,
	}
	cats := taxonomy.Categories()
	sevs := []taxonomy.Severity{taxonomy.SevInfo, taxonomy.SevWarning, taxonomy.SevError, taxonomy.SevCritical}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		rules := make([]taxonomy.Rule, n)
		for i := range rules {
			// Names are 1-3 fragments joined without separators; "#tail"
			// is only corrupting in first position, which CheckName
			// rejects, so it may appear as a suffix.
			name := nameAlpha[rng.Intn(len(nameAlpha))]
			for k := rng.Intn(3); k > 0; k-- {
				name += nameAlpha[rng.Intn(len(nameAlpha))]
			}
			rules[i] = taxonomy.Rule{
				Name:     name,
				Pattern:  regexp.MustCompile(patterns[rng.Intn(len(patterns))]),
				Category: cats[rng.Intn(len(cats))],
				Severity: sevs[rng.Intn(len(sevs))],
			}
		}
		var buf strings.Builder
		if err := taxonomy.WriteRules(&buf, rules); err != nil {
			// Only the documented round-trip hazards may be rejected.
			ok := false
			for _, r := range rules {
				if taxonomy.CheckName(r.Name) != nil {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("trial %d: WriteRules rejected clean rules: %v", trial, err)
			}
			continue
		}
		back, err := taxonomy.ReadRuleFile(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("trial %d: written set does not parse: %v\n%s", trial, err, buf.String())
		}
		if len(back) != len(rules) {
			t.Fatalf("trial %d: %d rules round-tripped to %d", trial, len(rules), len(back))
		}
		for i := range rules {
			if back[i].Name != rules[i].Name ||
				back[i].Category != rules[i].Category ||
				back[i].Severity != rules[i].Severity ||
				back[i].Pattern.String() != rules[i].Pattern.String() {
				t.Fatalf("trial %d rule %d changed: %+v -> %+v", trial, i, rules[i], back[i])
			}
		}
	}
}

func TestParseSeverity(t *testing.T) {
	tests := []struct {
		give string
		want taxonomy.Severity
		ok   bool
	}{
		{"INFO", taxonomy.SevInfo, true},
		{"warn", taxonomy.SevWarning, true},
		{"WARNING", taxonomy.SevWarning, true},
		{"Error", taxonomy.SevError, true},
		{"CRIT", taxonomy.SevCritical, true},
		{"CRITICAL", taxonomy.SevCritical, true},
		{"LOUD", 0, false},
	}
	for _, tt := range tests {
		got, ok := taxonomy.ParseSeverity(tt.give)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("ParseSeverity(%q) = (%v,%v)", tt.give, got, ok)
		}
	}
}
