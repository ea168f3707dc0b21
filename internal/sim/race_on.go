//go:build race

package sim

// raceEnabled turns the confinement check (Handle.confined) on: the builds
// that look for data races also look for a rank acting out of turn.
const raceEnabled = true
