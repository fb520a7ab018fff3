//go:build race

package privacy

// The race detector makes sync.Pool drop a share of what is put back, so a
// pooled path allocates its state again now and then.
func init() { raceEnabled = true }
