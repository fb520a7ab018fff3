// Package lib holds one export per case the scan must tell apart.
package lib

// Called has a caller in a non-test file.
func Called() int { return one() }

// one is unexported and called from Called.
func one() int { return 1 }

// TestOnly is called only from lib_test.go: a finding.
func TestOnly() int { return 2 }

// testOnly is unexported and called only from lib_test.go: the other
// finding.
func testOnly() int { return 3 }

// Speaker is a module interface whose method main calls.
type Speaker interface{ Speak() string }

// Dog satisfies Speaker.
type Dog struct{}

// Speak is reached only through Speaker.
func (Dog) Speak() string { return "woof" }

// Name is printed by fmt.
type Name string

// String is reached only through fmt.Stringer.
func (n Name) String() string { return "name:" + string(n) }
