//go:build race

package main

// raceEnabled: the race detector slows the engine several-fold, past the
// 50 ms SLO and the step counts the smoke test's one-second runs need.
const raceEnabled = true
