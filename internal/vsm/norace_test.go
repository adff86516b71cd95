//go:build !race

package vsm

const raceEnabled = false
