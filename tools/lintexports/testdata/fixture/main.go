// Command fixture is the lintexports test module: it calls lib.Called
// directly, Dog.Speak only through lib.Speaker, and Name.String only through
// fmt.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Speaker = lib.Dog{}
	fmt.Println(lib.Called(), s.Speak(), lib.Name("x"))
}
