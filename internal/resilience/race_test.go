//go:build race

package resilience_test

// The race detector makes sync.Pool drop a share of what is put back, so a
// pooled frame is allocated again now and then.
func init() { raceEnabled = true }
