//go:build !race

package tee

const raceEnabled = false
