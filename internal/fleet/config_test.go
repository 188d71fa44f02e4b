package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseConfig(t *testing.T) {
	text := `
# production fleet
[shard bw-main]
archive-dir = /srv/logs/bw
state-dir = /var/lib/logdiver/bw

; second machine
[shard test-rig]
archive-dir = rigs/a
machine = small
`
	cfg, err := ParseConfig(text)
	if err != nil {
		t.Fatal(err)
	}
	want := &Config{Shards: []ShardConfig{
		{Name: "bw-main", ArchiveDir: "/srv/logs/bw", Machine: MachineBlueWaters, StateDir: "/var/lib/logdiver/bw"},
		{Name: "test-rig", ArchiveDir: "rigs/a", Machine: MachineSmall},
	}}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
}

func TestParseConfigSortsByName(t *testing.T) {
	cfg, err := ParseConfig("[shard zz]\narchive-dir=a\n[shard aa]\narchive-dir=b\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards[0].Name != "aa" || cfg.Shards[1].Name != "zz" {
		t.Fatalf("shards not sorted: %+v", cfg.Shards)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"empty", "", "no shards"},
		{"comment only", "# nothing\n", "no shards"},
		{"key outside section", "archive-dir = x\n", "outside a [shard NAME] section"},
		{"unknown section", "[fleet]\n", "unknown section"},
		{"unterminated section", "[shard a\narchive-dir=x\n", "unterminated"},
		{"bad name", "[shard a/b]\narchive-dir=x\n", "invalid shard name"},
		{"dotdot name", "[shard ..]\narchive-dir=x\n", "invalid shard name"},
		{"long name", "[shard " + strings.Repeat("x", 65) + "]\narchive-dir=x\n", "invalid shard name"},
		{"unknown key", "[shard a]\narchive-dir=x\ncolour = blue\n", "unknown key"},
		{"retired tz key", "[shard a]\narchive-dir=x\ntz = UTC\n", `unknown key "tz"`},
		{"bad machine", "[shard a]\narchive-dir=x\nmachine = cray-2\n", "unknown machine profile"},
		{"missing archive dir", "[shard a]\nmachine = small\n", "archive-dir is required"},
		{"duplicate key", "[shard a]\narchive-dir=x\narchive-dir=y\n", "duplicate key"},
		{"duplicate shard", "[shard a]\narchive-dir=x\n[shard a]\narchive-dir=y\n", "duplicate shard name"},
		{"bare line", "[shard a]\narchive-dir=x\nnonsense\n", "expected key = value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(tc.text)
			if err == nil {
				t.Fatalf("no error, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg, err := ParseConfig("[shard a]\narchive-dir = x\nmachine = small\n[shard b]\narchive-dir = y\nstate-dir = s\n")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseConfig(cfg.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", cfg.String(), err)
	}
	if !reflect.DeepEqual(cfg, again) {
		t.Fatalf("round trip changed the config:\n before %+v\n after  %+v", cfg, again)
	}
}

func TestLoadConfigResolvesRelativePaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.conf")
	text := "[shard a]\narchive-dir = data/a\nstate-dir = state/a\n[shard b]\narchive-dir = /abs/b\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cfg.Shards[0].ArchiveDir, filepath.Join(dir, "data/a"); got != want {
		t.Fatalf("archive dir %q, want %q", got, want)
	}
	if got, want := cfg.Shards[0].StateDir, filepath.Join(dir, "state/a"); got != want {
		t.Fatalf("state dir %q, want %q", got, want)
	}
	if got := cfg.Shards[1].ArchiveDir; got != "/abs/b" {
		t.Fatalf("absolute archive dir rewritten to %q", got)
	}
}

// FuzzFleetConfig pins two properties on arbitrary input: the parser never
// panics, and any accepted config survives a render → parse round trip.
func FuzzFleetConfig(f *testing.F) {
	f.Add("[shard m00]\narchive-dir = data/m00\nmachine = small\n")
	f.Add("[shard a]\narchive-dir=x\nstate-dir=y\n")
	f.Add("# comment\n; comment\n[shard b]\narchive-dir = /x\n")
	f.Add("[shard ..]\narchive-dir=x")
	f.Add("[shard a]\narchive-dir = a = b\n")
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseConfig(text)
		if err != nil {
			return
		}
		again, err := ParseConfig(cfg.String())
		if err != nil {
			t.Fatalf("accepted config failed to re-parse: %v\nrendered:\n%s", err, cfg.String())
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("round trip changed the config:\n before %+v\n after  %+v", cfg, again)
		}
	})
}
