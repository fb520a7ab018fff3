//go:build race

package privacy

// The race detector makes sync.Pool drop a share of what is put back, so a
// pooled path allocates its state again now and then. Its instrumentation
// also keeps slices.Grow from growing in place: a Grow past a decode block's
// room or list allocates twice.
func init() { raceEnabled = true }
