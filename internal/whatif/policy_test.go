package whatif

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParsePolicies(t *testing.T) {
	text := `
# checkpointing with bounded retries
[policy daly-retry]
checkpoint = daly
checkpoint-cost = 7m
restart-cost = 12m
retry-limit = 2
retry-backoff = 5m

; fixed-interval comparison
[policy fixed-2h]
checkpoint = fixed
checkpoint-interval = 2h
checkpoint-cost = 7m

[policy detect]
detect-fraction = 0.8
retry-limit = 1
restart-cost = 12m

[policy noop]
`
	pols, err := ParsePolicies(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []Policy{
		{Name: "daly-retry", Checkpoint: CheckpointDaly, CheckpointCost: 7 * time.Minute,
			RestartCost: 12 * time.Minute, RetryLimit: 2, RetryBackoff: 5 * time.Minute},
		{Name: "fixed-2h", Checkpoint: CheckpointFixed, CheckpointInterval: 2 * time.Hour,
			CheckpointCost: 7 * time.Minute},
		{Name: "detect", DetectFraction: 0.8, RetryLimit: 1, RestartCost: 12 * time.Minute},
		{Name: "noop"},
	}
	if !reflect.DeepEqual(pols, want) {
		t.Errorf("parsed %+v\nwant %+v", pols, want)
	}
	if !pols[3].IsNoop() || pols[0].IsNoop() {
		t.Error("IsNoop misclassifies")
	}
}

func TestParsePoliciesErrors(t *testing.T) {
	tests := []struct {
		name string
		text string
		want string
	}{
		{"empty", "", "no policies"},
		{"key outside section", "checkpoint = daly\n", "outside a [policy NAME] section"},
		{"unknown section", "[shard a]\n", "unknown section"},
		{"unterminated", "[policy a\n", "unterminated"},
		{"bad name", "[policy a/b]\n", "invalid policy name"},
		{"long name", "[policy " + strings.Repeat("x", 65) + "]\n", "invalid policy name"},
		{"duplicate name", "[policy a]\n[policy a]\n", "duplicate policy name"},
		{"duplicate key", "[policy a]\nretry-limit = 1\nretry-limit = 2\n", "duplicate key"},
		{"unknown key", "[policy a]\nfrequency = 1\n", "unknown key"},
		{"bad kind", "[policy a]\ncheckpoint = hourly\n", "unknown checkpoint kind"},
		{"bad duration", "[policy a]\ncheckpoint-cost = fast\n", "bad checkpoint-cost"},
		{"negative duration", "[policy a]\nrestart-cost = -5m\n", "bad restart-cost"},
		{"missing equals", "[policy a]\ncheckpoint daly\n", "expected key = value"},
		{"fixed without interval", "[policy a]\ncheckpoint = fixed\ncheckpoint-cost = 5m\n", "checkpoint-interval > 0"},
		{"interval without fixed", "[policy a]\ncheckpoint = daly\ncheckpoint-cost = 5m\ncheckpoint-interval = 1h\n", "only applies to checkpoint = fixed"},
		{"ckpt without cost", "[policy a]\ncheckpoint = daly\n", "checkpoint-cost > 0"},
		{"cost without ckpt", "[policy a]\ncheckpoint-cost = 5m\n", "checkpoint = none"},
		{"backoff without retries", "[policy a]\nretry-backoff = 5m\n", "retry-limit = 0"},
		{"retry range", "[policy a]\nretry-limit = 200\n", "out of range"},
		{"fraction range", "[policy a]\ndetect-fraction = 1.5\n", "out of range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParsePolicies(tt.text)
			if err == nil {
				t.Fatalf("accepted %q", tt.text)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestParsePoliciesLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i <= MaxPolicies; i++ {
		b.WriteString("[policy p")
		b.WriteString(strings.Repeat("x", i))
		b.WriteString("]\n")
	}
	if _, err := ParsePolicies(b.String()); err == nil || !strings.Contains(err.Error(), "too many policies") {
		t.Errorf("got %v, want too-many-policies error", err)
	}
}

func TestPoliciesStringRoundTrip(t *testing.T) {
	pols := DefaultPolicies()
	text := PoliciesString(pols)
	got, err := ParsePolicies(text)
	if err != nil {
		t.Fatalf("reparse of\n%s\nfailed: %v", text, err)
	}
	if !reflect.DeepEqual(got, pols) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, pols)
	}
}

func TestDefaultPoliciesValid(t *testing.T) {
	for _, p := range DefaultPolicies() {
		if err := p.Validate(); err != nil {
			t.Errorf("default policy %s: %v", p.Name, err)
		}
	}
}

func TestLoadPolicies(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policies.conf")
	if err := os.WriteFile(path, []byte(PoliciesString(DefaultPolicies())), 0o644); err != nil {
		t.Fatal(err)
	}
	pols, err := LoadPolicies(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pols) != len(DefaultPolicies()) {
		t.Errorf("loaded %d policies, want %d", len(pols), len(DefaultPolicies()))
	}
	if _, err := LoadPolicies(filepath.Join(dir, "absent.conf")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.conf")
	if err := os.WriteFile(bad, []byte("[policy a]\nnope = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPolicies(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("bad-file error %v should name the path", err)
	}
}
