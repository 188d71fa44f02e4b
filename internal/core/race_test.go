//go:build race

package core

// raceEnabled reports whether the race detector is on: sync.Pool drops
// items at random under it, so the testing.AllocsPerRun gates over pooled
// scratch buffers cannot hold and skip themselves.
const raceEnabled = true
