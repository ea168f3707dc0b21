//go:build !race

package jobq_test

const raceEnabled = false
