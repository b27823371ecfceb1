// Golden test package for the unreached analyzer. It is a main package, so
// it carries its own roots; the test policy allowlists
// hyvet.test/unreached.Allowed.
package main

import "fmt"

func main() {
	Reached()
	run(ByValue)
	c := &counter{}
	inc := c.Inc
	inc()
	var s shape = square{}
	fmt.Println(s.Area(), square{})
}

// Reached is called from main, and reaches its helper.
func Reached() { helper() }

func helper() {}

// ByValue is only ever passed as a function value.
func ByValue() {}

func run(f func()) { f() }

type counter struct{ n int }

// Inc is only taken as a method value.
func (c *counter) Inc() { c.n++ }

type shape interface{ Area() float64 }

type square struct{}

type circle struct{}

// Area is only called through the shape interface: every method named
// Area is reached, circle's too.
func (square) Area() float64 { return 1 }

func (circle) Area() float64 { return 3 }

// String satisfies fmt.Stringer, which the standard library calls.
func (square) String() string { return "square" }

// Perimeter is a method nothing calls.
func (square) Perimeter() float64 { return 4 } // want "hyvet.test/unreached.square.Perimeter is reached from no main"

// Unreached is an exported function nothing calls.
func Unreached() { helperOfUnreached() } // want "hyvet.test/unreached.Unreached is reached from no main"

// helperOfUnreached is reached only by dead code, so it is dead too.
func helperOfUnreached() {} // want "hyvet.test/unreached.helperOfUnreached is reached from no main"

// Allowed is on the policy allowlist, and so is everything it reaches.
func Allowed() { viaAllowed() }

func viaAllowed() {}

// handlers is a package-level initialiser: what it references is reached.
var handlers = map[string]func(){"init": FromInitialiser}

// FromInitialiser is reached from a package-level initialiser.
func FromInitialiser() {}

func init() { FromInit() }

// FromInit is reached from init.
func FromInit() {}
