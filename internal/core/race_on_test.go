//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it,
// sync.Pool drops pooled objects at random, so allocation counts are not
// the program's own and allocation ceilings do not apply.
const raceEnabled = true
