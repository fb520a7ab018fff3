package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
	if testOnly() != 3 {
		t.Fatal("testOnly")
	}
}
