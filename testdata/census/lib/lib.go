// Package lib is a census fixture: Used has a caller in app, TestOnly and
// Options.TestOnly are used only by lib_test.go, and Name.String is reached
// only through fmt.Stringer.
package lib

// Used is called by package app.
func Used() int { return 1 }

// TestOnly is called only by a test.
func TestOnly() int { return 2 }

// Name's String method implements fmt.Stringer.
type Name string

func (n Name) String() string { return string(n) }

// Options has one field app sets and one only a test sets.
type Options struct {
	Size     int
	TestOnly int
}
