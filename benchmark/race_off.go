//go:build !race

package main

// raceEnabled records whether the harness was built with -race; such a run's
// numbers are not comparable, and the environment fingerprint says so.
const raceEnabled = false
