package logdiver

import (
	"logdiver/internal/experiments"
)

// Experiment anchor constants from the paper's abstract, re-exported for
// callers that want to compare measured values programmatically.
const (
	// AnchorSystemFraction is the fraction of runs failing for system
	// reasons (lesson 1).
	AnchorSystemFraction = experiments.AnchorSystemFraction
	// AnchorLostNodeHours is the node-hours share consumed by those runs.
	AnchorLostNodeHours = experiments.AnchorLostNodeHours
	// AnchorXEProb10k and AnchorXEProb22k bracket the XE scaling curve.
	AnchorXEProb10k = experiments.AnchorXEProb10k
	AnchorXEProb22k = experiments.AnchorXEProb22k
	// AnchorXKProb2k and AnchorXKProb4224 bracket the XK scaling curve.
	AnchorXKProb2k   = experiments.AnchorXKProb2k
	AnchorXKProb4224 = experiments.AnchorXKProb4224
)

// Experiments regenerates every evaluation artifact of the study: tables
// E1-E10 plus the A1/A2 methodological ablations. Truth-dependent tables
// (E9, A1, A2) require the dataset's ground truth; pass nil to omit them
// (as when analyzing real archives without ground truth).
func Experiments(res *Result, top *Topology, truth map[uint64]Truth) ([]*Table, error) {
	return experiments.All(res, top, truth)
}
