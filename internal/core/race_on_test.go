//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips itself under -race, whose instrumentation makes
// the many tiny fork-join regions of a multimat step slow to run.
const raceEnabled = true
