//go:build !race

package taxonomy

const raceEnabled = false
