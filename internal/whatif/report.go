package whatif

import (
	"logdiver/internal/report"
)

// OutcomeRow is one outcome's share of runs and node-hours.
type OutcomeRow struct {
	Outcome   string  `json:"outcome"`
	Runs      int     `json:"runs"`
	NodeHours float64 `json:"node_hours"`
}

// ScaleRow is one scale bucket of a policy's W3 breakdown.
type ScaleRow struct {
	// Lo and Hi bound the bucket: Lo <= nodes < Hi.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Label renders the bounds compactly ("4096-8191").
	Label string `json:"label"`
	// Runs and Interrupts count bucket members and simulated system
	// interrupts (including recovered ones).
	Runs       int `json:"runs"`
	Interrupts int `json:"interrupts"`
	// MTTIHours is the measured mean time to interrupt at this scale
	// (0 when the bucket saw no interrupts).
	MTTIHours float64 `json:"mtti_hours"`
	// TauHours is the checkpoint interval the policy uses at this scale
	// (0 when the policy does not checkpoint here).
	TauHours float64 `json:"tau_hours"`
	// RunsRecovered counts interrupted runs the policy completed.
	RunsRecovered int `json:"runs_recovered"`
	// LostNodeHours is work wasted on interrupts under the policy;
	// SavedNodeHours the reduction versus the measured baseline.
	LostNodeHours  float64 `json:"lost_node_hours"`
	SavedNodeHours float64 `json:"saved_node_hours"`
}

// PolicyResult aggregates one policy's counterfactual outcome.
type PolicyResult struct {
	Name     string       `json:"name"`
	Policy   Policy       `json:"policy"`
	Outcomes []OutcomeRow `json:"outcomes"`
	// UsefulNodeHours is realized successful work (SUCCESS + RECOVERED).
	UsefulNodeHours float64 `json:"useful_node_hours"`
	// LostNodeHours is work wasted on system interrupts: rework tails
	// plus execution consumed by failed retries.
	LostNodeHours float64 `json:"lost_node_hours"`
	// BankedNodeHours is work of unrecovered runs preserved in durable
	// checkpoints — not realized, but not destroyed either.
	BankedNodeHours float64 `json:"banked_node_hours"`
	// CheckpointOverheadNodeHours and RestartOverheadNodeHours price the
	// policy's own machinery.
	CheckpointOverheadNodeHours float64 `json:"checkpoint_overhead_node_hours"`
	RestartOverheadNodeHours    float64 `json:"restart_overhead_node_hours"`
	// ConsumedNodeHours is total machine time occupied under the policy;
	// GoodputFraction = UsefulNodeHours / ConsumedNodeHours.
	ConsumedNodeHours float64 `json:"consumed_node_hours"`
	GoodputFraction   float64 `json:"goodput_fraction"`
	// RecoveryDelayHours is wall-clock time recovery added (backoffs,
	// failed attempts, the successful re-execution).
	RecoveryDelayHours float64 `json:"recovery_delay_hours"`
	RunsRecovered      int     `json:"runs_recovered"`
	// RunsDetected counts runs the detection counterfactual reclassified
	// from USER to a detected system interrupt.
	RunsDetected     int `json:"runs_detected"`
	RetriesAttempted int `json:"retries_attempted"`
	// SavedNodeHours is the lost-work reduction versus the measured
	// baseline; NetSavedNodeHours subtracts the policy's own overheads.
	SavedNodeHours    float64    `json:"saved_node_hours"`
	NetSavedNodeHours float64    `json:"net_saved_node_hours"`
	ByScale           []ScaleRow `json:"by_scale"`
}

// Report is a full simulation result: the measured baseline, its no-op
// replay (identical by construction — the differential suite enforces it
// byte for byte), and each requested policy.
type Report struct {
	Seed           int64          `json:"seed"`
	Runs           int            `json:"runs"`
	TotalNodeHours float64        `json:"total_node_hours"`
	Measured       []OutcomeRow   `json:"measured"`
	Baseline       PolicyResult   `json:"baseline"`
	Policies       []PolicyResult `json:"policies"`
}

// Tables renders the report as the W1–W3 tables.
//
//	W1  counterfactual outcome shift per policy
//	W2  node-hour economics per policy
//	W3  recovery by scale bucket per policy
func (r *Report) Tables() []*report.Table {
	w1 := report.Table{
		ID:      "W1",
		Title:   "Counterfactual outcome shift vs measured baseline",
		Columns: []string{"policy", "outcome", "measured runs", "simulated runs", "delta", "measured nh", "simulated nh"},
		Notes:   []string{"RECOVERED counts measured system failures the policy completed"},
	}
	measured := map[string]OutcomeRow{}
	for _, row := range r.Measured {
		measured[row.Outcome] = row
	}
	for _, pol := range r.Policies {
		for _, row := range pol.Outcomes {
			m := measured[row.Outcome]
			w1.AddRow(pol.Name, row.Outcome,
				report.Count(m.Runs), report.Count(row.Runs), report.Count(row.Runs-m.Runs),
				report.F1(m.NodeHours), report.F1(row.NodeHours))
		}
	}

	w2 := report.Table{
		ID:      "W2",
		Title:   "Node-hour economics per policy",
		Columns: []string{"policy", "useful nh", "lost nh", "saved nh", "net saved nh", "banked nh", "ckpt overhead", "restart overhead", "goodput", "recovered", "detected", "retries"},
		Notes:   []string{"saved = baseline lost - policy lost; net saved subtracts the policy's own overheads"},
	}
	addW2 := func(p PolicyResult) {
		w2.AddRow(p.Name, report.F1(p.UsefulNodeHours), report.F1(p.LostNodeHours),
			report.F1(p.SavedNodeHours), report.F1(p.NetSavedNodeHours), report.F1(p.BankedNodeHours),
			report.F1(p.CheckpointOverheadNodeHours), report.F1(p.RestartOverheadNodeHours),
			report.Pct(p.GoodputFraction), report.Count(p.RunsRecovered), report.Count(p.RunsDetected),
			report.Count(p.RetriesAttempted))
	}
	addW2(r.Baseline)
	for _, p := range r.Policies {
		addW2(p)
	}

	w3 := report.Table{
		ID:      "W3",
		Title:   "Recovery by scale bucket",
		Columns: []string{"policy", "nodes", "runs", "interrupts", "mtti h", "tau h", "recovered", "lost nh", "saved nh"},
		Notes:   []string{"tau is the checkpoint interval in force at the bucket's measured MTTI (0 = no checkpointing)"},
	}
	for _, pol := range r.Policies {
		for _, b := range pol.ByScale {
			if b.Runs == 0 {
				continue
			}
			w3.AddRow(pol.Name, b.Label, report.Count(b.Runs), report.Count(b.Interrupts),
				report.F1(b.MTTIHours), report.F1(b.TauHours), report.Count(b.RunsRecovered),
				report.F1(b.LostNodeHours), report.F1(b.SavedNodeHours))
		}
	}
	return []*report.Table{&w1, &w2, &w3}
}
