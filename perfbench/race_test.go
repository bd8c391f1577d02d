//go:build race

package main

// raceEnabled: the race detector slows every operation several times, so
// runs miss their latency limits.
const raceEnabled = true
