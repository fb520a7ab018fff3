package bench

import (
	"reflect"
	"testing"
)

// TestE21Deterministic: the experiment is pure function of its seeds — two
// runs must produce identical tables (rows, notes, metrics), which is what
// lets the -json report track the perf trajectory across revisions.
func TestE21Deterministic(t *testing.T) {
	first, err := E21CacheAcceleration(true)
	if err != nil {
		t.Fatalf("E21 run 1: %v", err)
	}
	second, err := E21CacheAcceleration(true)
	if err != nil {
		t.Fatalf("E21 run 2: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("E21 is not deterministic:\nrun1: %+v\nrun2: %+v", first, second)
	}
}
