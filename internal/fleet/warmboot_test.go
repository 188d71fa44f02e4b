package fleet_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/fleet"
	"logdiver/internal/parse"
	"logdiver/internal/persist"
	"logdiver/internal/serve"
)

// fileStamp is what a save would change about a state file.
type fileStamp struct {
	data    []byte
	modTime time.Time
}

func stampFiles(t *testing.T, paths []string) []fileStamp {
	t.Helper()
	out := make([]fileStamp, len(paths))
	for i, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fileStamp{data, fi.ModTime()}
	}
	return out
}

func sameStamp(a, b fileStamp) bool { return bytes.Equal(a.data, b.data) && a.modTime.Equal(b.modTime) }

// outcomes returns the manager's /v1/outcomes body as served.
func outcomes(t *testing.T, mgr *fleet.Manager) []byte {
	t.Helper()
	srv, err := serve.New(serve.Config{Fleet: mgr})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/outcomes", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/outcomes answered %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestWarmBootWritesNothing: a warm boot's loaded state file is its last
// save. The first round over unchanged archives leaves every state file's
// bytes and mtime as they were; a second boot without a save in between
// serves the same first fleet epoch with the same /v1/outcomes bytes; the
// state interval counts from the load, so the first installing round at or
// past it persists and none before it does; and a cold-fallback boot still
// rewrites its file on the first round.
func TestWarmBootWritesNothing(t *testing.T) {
	machines := fleet.ThinFleet(t, 2)
	root := t.TempDir()
	cfg := fleet.TestFleet(t, root, machines, true)
	paths := make([]string, len(machines))
	for i, m := range machines {
		paths[i] = filepath.Join(root, "state", m.Name, persist.StateFile)
	}
	clock := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	const every = time.Minute
	mcfg := fleet.ManagerConfig{Config: cfg, StateInterval: every, Now: func() time.Time { return clock }}
	ctx := context.Background()
	boot := func(want string) *fleet.Manager {
		t.Helper()
		mgr, err := fleet.NewManager(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range mgr.View().Shards {
			if st.Restore.Mode != want {
				t.Fatalf("shard %s booted %q (%s), want %s", st.Name, st.Restore.Mode, st.Restore.Detail, want)
			}
		}
		return mgr
	}
	firstRound := func(mgr *fleet.Manager) (uint64, []byte) {
		t.Helper()
		r := mgr.SyncRound(ctx)
		if !r.Installed {
			t.Fatal("the first round after a boot installed nothing")
		}
		return r.FleetEpoch, outcomes(t, mgr)
	}

	// First life: a cold boot saves on its first round, and on shutdown.
	cold := boot("cold")
	firstRound(cold)
	cold.PersistAll()
	saved := stampFiles(t, paths)

	clock = clock.Add(time.Hour)
	warm := boot("warm")
	epoch, body := firstRound(warm)
	for i, s := range stampFiles(t, paths) {
		if !sameStamp(s, saved[i]) {
			t.Fatalf("the first round of a warm boot rewrote %s", paths[i])
		}
	}

	// Boot again with no save in between: the same first epoch names the
	// same content.
	loaded := clock.Add(time.Second)
	clock = loaded
	again := boot("warm")
	if e, b := firstRound(again); e != epoch || !bytes.Equal(b, body) {
		t.Fatalf("second warm boot served fleet epoch %d (%d bytes), the first %d (%d bytes): one epoch, two contents", e, len(b), epoch, len(body))
	}

	// Appended bytes install at once but persist only once the interval
	// since the load has passed.
	dir0 := filepath.Join(root, machines[0].Name)
	fleet.WriteWindow(t, dir0, machines[0], 1)
	clock = loaded.Add(every - time.Nanosecond)
	if r := again.SyncRound(ctx); !r.Installed {
		t.Fatal("appended bytes installed nothing")
	}
	for i, s := range stampFiles(t, paths) {
		if !sameStamp(s, saved[i]) {
			t.Fatalf("a round inside the state interval after the load rewrote %s", paths[i])
		}
	}
	fleet.WriteWindow(t, dir0, machines[0], 2)
	clock = loaded.Add(every)
	if r := again.SyncRound(ctx); !r.Installed {
		t.Fatal("appended bytes installed nothing")
	}
	now := stampFiles(t, paths)
	if sameStamp(now[0], saved[0]) {
		t.Fatalf("the first installing round at the state interval after the load did not persist %s", paths[0])
	}
	if !sameStamp(now[1], saved[1]) {
		t.Fatalf("a shard that installed nothing rewrote %s", paths[1])
	}
	if ld, err := persist.Load(paths[0]); err != nil || !ld.SavedAt.Equal(clock) {
		t.Fatalf("persisted state: %v, saved at %v, want %v", err, ld.SavedAt, clock)
	}

	// A cold-fallback boot rewrites its file on the first round, whether
	// the file fails to load or loads and fails to restore.
	for _, spoil := range []struct {
		name string
		do   func() error
	}{
		{"checksum", func() error {
			bad := bytes.Clone(now[1].data)
			bad[len(bad)-1] ^= 0x40
			return os.WriteFile(paths[1], bad, 0o644)
		}},
		{"restore", func() error {
			ld, err := persist.Load(paths[1])
			if err != nil {
				return err
			}
			ld.Syncer.Pipeline.LineBase[0] = -1
			return persist.Save(paths[1], ld)
		}},
	} {
		if err := spoil.do(); err != nil {
			t.Fatal(err)
		}
		spoiled := stampFiles(t, paths[1:])[0]
		fallback, err := fleet.NewManager(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if mode := fallback.View().Shards[1].Restore.Mode; mode != "cold-fallback" {
			t.Fatalf("%s: a spoiled state file booted %q, want cold-fallback", spoil.name, mode)
		}
		firstRound(fallback)
		if sameStamp(stampFiles(t, paths[1:])[0], spoiled) {
			t.Fatalf("%s: the cold-fallback shard's first round did not rewrite %s", spoil.name, paths[1])
		}
		if _, err := persist.Load(paths[1]); err != nil {
			t.Fatalf("%s: the cold-fallback shard's first round left its state unreadable: %v", spoil.name, err)
		}
	}
}

// TestVersion2StateBootsCold: a state file of format version 2 is a
// *persist.VersionError. In lenient mode the shard boots cold-fallback,
// keeps serving, and its first round replaces the file with the current
// version; in strict mode NewManager refuses, naming the first such shard
// in configuration order and the file.
func TestVersion2StateBootsCold(t *testing.T) {
	machines := fleet.ThinFleet(t, 2)
	root := t.TempDir()
	cfg := fleet.TestFleet(t, root, machines, true)
	mgr, err := fleet.NewManager(fleet.ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SyncRound(context.Background())
	mgr.PersistAll()
	for _, m := range machines {
		p := filepath.Join(root, "state", m.Name, persist.StateFile)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(data[len("LDVSTATE"):], 2)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, err = fleet.NewManager(fleet.ManagerConfig{Config: cfg, Options: core.Options{ParseMode: parse.Strict}})
	var ve *persist.VersionError
	if !errors.As(err, &ve) || ve.Got != 2 || ve.Want != persist.Version {
		t.Fatalf("strict boot on version-2 files: %v, want a VersionError from 2", err)
	}
	first := filepath.Join(root, "state", machines[0].Name, persist.StateFile)
	if msg := err.Error(); !strings.Contains(msg, `shard "`+machines[0].Name+`"`) || !strings.Contains(msg, first) {
		t.Fatalf("strict refusal %q does not name the first shard and its file", msg)
	}

	lenient, err := fleet.NewManager(fleet.ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range lenient.View().Shards {
		if st.Restore.Mode != "cold-fallback" || !strings.Contains(st.Restore.Detail, "version 2") {
			t.Fatalf("shard %s booted %q (%s), want cold-fallback naming version 2", st.Name, st.Restore.Mode, st.Restore.Detail)
		}
	}
	if r := lenient.SyncRound(context.Background()); !r.Installed {
		t.Fatal("the cold-fallback fleet installed nothing")
	}
	for _, m := range machines {
		if _, err := persist.Load(filepath.Join(root, "state", m.Name, persist.StateFile)); err != nil {
			t.Fatalf("shard %s: the first round did not replace the version-2 file: %v", m.Name, err)
		}
	}
}
