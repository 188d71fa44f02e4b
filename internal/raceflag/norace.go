//go:build !race

// Package raceflag reports whether the binary was built with the race
// detector. sync.Pool drops items at random under it, so the
// testing.AllocsPerRun ceilings over pooled scratch buffers cannot hold
// there and skip themselves.
package raceflag

// Enabled is true in -race builds.
const Enabled = false
