//go:build !race

package sqlmini

const raceEnabled = false
