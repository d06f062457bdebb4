//go:build race

package sqlmini

// raceEnabled: the race detector makes sync.Pool drop a quarter of what
// is put back, so a pooled buffer is allocated again now and then.
const raceEnabled = true
