// Package lib holds one export per case the scan must tell apart.
package lib

// Called has a caller in a non-test file.
func Called() int { return 1 }

// TestOnly is called only from lib_test.go: the one finding.
func TestOnly() int { return 2 }

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
