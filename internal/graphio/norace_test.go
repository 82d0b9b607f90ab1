//go:build !race

package graphio

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions skip under it.
const raceEnabled = false
