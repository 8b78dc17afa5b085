//go:build race

package fl

// raceEnabled reports that the race detector instruments this build; the
// allocation pins skip under it, since the detector allocates on its own.
const raceEnabled = true
