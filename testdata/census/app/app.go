// Package app is the census fixture's caller of lib.
package app

import (
	"fmt"

	"fixture/lib"
)

// Describe uses lib's exports the way product code would.
func Describe() string {
	o := lib.Options{Size: lib.Used()}
	return fmt.Sprint(lib.Name("disk"), o.Size)
}
