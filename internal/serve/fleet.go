package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"logdiver/internal/fleet"
	"logdiver/internal/store"
)

// The fleet side of the query plane. The daemon always serves a
// fleet.Manager — one shard for -data-dir, several for -fleet-config — and
// the server's store IS the manager's merged store, so every view rides one
// per-epoch response cache: the cached bytes are rendered from one merged
// snapshot pointer and carry its composite epoch vector, which makes a
// mixed-epoch response impossible by construction. /v1/fleet/<view> is
// /v1/<view> plus the fleet object; ?machine= narrows either to one shard's
// last good snapshot, rendered per request under its own
// "<machine>-<epoch>" entity tag.

// noFleet is what a server built over a bare Store (tests, the benchmark's
// batch phase) reports: no manager, so no shards.
var noFleet = &fleet.View{}

// fleetView returns the manager's latest published view.
func (s *Server) fleetView() *fleet.View {
	if s.cfg.Fleet == nil {
		return noFleet
	}
	return s.cfg.Fleet.View()
}

// fleetMeta is the trailing fleet object of every /v1/fleet/<view>
// response. The epoch of the response is the fleet epoch; Shards is the
// per-machine epoch vector the merged snapshot was folded from.
type fleetMeta struct {
	Partial bool               `json:"partial"`
	Shards  []store.ShardEpoch `json:"shards"`
}

// serveShardView answers one view narrowed to a single shard. The shard's
// last good snapshot is rendered per request (shard views are the rare
// drill-down; the merged view is the hot path) under an entity tag
// combining the machine name with the shard epoch, so conditional requests
// revalidate exactly like the cached endpoints do.
func (s *Server) serveShardView(w http.ResponseWriter, r *http.Request, machine string, view viewID) {
	for _, st := range s.fleetView().Shards {
		if st.Name != machine {
			continue
		}
		if st.Snap == nil {
			s.writeErr(w, http.StatusServiceUnavailable,
				fmt.Sprintf("shard %q has no snapshot yet: ingestion warming up", machine))
			return
		}
		etag := `"` + machine + "-" + strconv.FormatUint(st.Snap.Epoch, 10) + `"`
		if !s.notModified(w, r, etag) {
			writeEncoded(w, r, renderView(view, st.Snap, false))
		}
		return
	}
	s.writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown machine %q", machine))
}

// ---- /v1/health fleet section ----

// shardHealth is one shard's row in /v1/health.
type shardHealth struct {
	Name       string        `json:"name"`
	Status     string        `json:"status"`
	Epoch      uint64        `json:"epoch"`
	Runs       int           `json:"runs"`
	LagSeconds float64       `json:"lag_seconds"`
	Error      string        `json:"error,omitempty"`
	Restore    fleet.Restore `json:"restore"`
}

type fleetHealth struct {
	FleetEpoch uint64        `json:"fleet_epoch"`
	Partial    bool          `json:"partial"`
	Shards     []shardHealth `json:"shards"`
}

// fleetHealthOf builds the health section from the manager's published
// view.
func (s *Server) fleetHealthOf(v *fleet.View) *fleetHealth {
	fh := &fleetHealth{FleetEpoch: v.FleetEpoch, Partial: v.Partial, Shards: make([]shardHealth, 0, len(v.Shards))}
	now := s.cfg.Now()
	for _, st := range v.Shards {
		sh := shardHealth{
			Name:    st.Name,
			Status:  st.Status,
			Epoch:   st.Epoch,
			Runs:    st.Runs,
			Error:   st.LastError,
			Restore: st.Restore,
		}
		if !st.LastSync.IsZero() {
			sh.LagSeconds = now.Sub(st.LastSync).Seconds()
		}
		fh.Shards = append(fh.Shards, sh)
	}
	return fh
}

// ---- /metrics fleet gauges ----

// fleetGauges builds the per-shard labeled gauge families and folds the
// fleet-wide scalars into gauges.
func (s *Server) fleetGauges(gauges map[string]float64) []gaugeFamily {
	v := s.fleetView()
	gauges["logdiver_fleet_shards"] = float64(len(v.Shards))
	gauges["logdiver_fleet_partial"] = b2f(v.Partial)
	gauges["logdiver_fleet_epoch"] = float64(v.FleetEpoch)
	// 1 when every shard of this process warm-started from persisted state,
	// 0 when any rebuilt cold (including fallback after a rejected file).
	warm := len(v.Shards) > 0

	epoch := gaugeFamily{
		name:  "logdiver_shard_epoch",
		help:  "Snapshot epoch of each machine shard.",
		label: "machine",
	}
	lag := gaugeFamily{
		name:  "logdiver_shard_lag_seconds",
		help:  "Seconds since each shard's last poll, whether it succeeded, found nothing or failed.",
		label: "machine",
	}
	up := gaugeFamily{
		name:  "logdiver_shard_up",
		help:  "1 when the shard's pipeline is healthy, 0 when failed or waiting.",
		label: "machine",
	}
	now := s.cfg.Now()
	for _, st := range v.Shards {
		epoch.samples = append(epoch.samples, labeledGauge{st.Name, float64(st.Epoch)})
		var lagS float64
		if !st.LastSync.IsZero() {
			lagS = now.Sub(st.LastSync).Seconds()
		}
		lag.samples = append(lag.samples, labeledGauge{st.Name, lagS})
		up.samples = append(up.samples, labeledGauge{st.Name, b2f(st.Status == "ok")})
		warm = warm && st.Restore.Mode == "warm"
	}
	gauges["logdiver_warm_restart"] = b2f(warm)
	return []gaugeFamily{epoch, lag, up}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
