//go:build race

package main

// raceEnabled: the race detector slows the in-process replay several
// times over but not the server binaries, so timing-validity problems
// (the residual check) are expected and only failures count.
const raceEnabled = true
