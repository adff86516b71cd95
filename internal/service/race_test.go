//go:build race

package service

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so allocation guards on pooled buffers skip under it.
const raceEnabled = true
