// Package tpg implements the temporal-property-graph substrate: an LPG whose
// vertices and edges carry validity intervals (the paper's ρ function),
// supporting snapshot retrieval, diffs, time-respecting
// paths, and the evolution of graph metrics over time as time series
// (the metricEvolution operator of Section 5).
package tpg

import (
	"fmt"

	"hygraph/internal/ts"
)

// Interval is a half-open validity interval [Start, End). The paper's ρ
// function assigns one to every property-graph element, with End initialized
// to max(T) for currently valid elements.
type Interval struct {
	Start, End ts.Time
}

// Always is the interval covering all of time.
var Always = Interval{Start: 0, End: ts.MaxTime}

// From returns the interval [start, max(T)), i.e. valid from start onwards.
func From(start ts.Time) Interval { return Interval{Start: start, End: ts.MaxTime} }

// Between returns the interval [start, end).
func Between(start, end ts.Time) Interval { return Interval{Start: start, End: end} }

// Valid reports whether the interval is well-formed (Start <= End).
func (iv Interval) Valid() bool { return iv.Start <= iv.End }

// Contains reports whether t lies within [Start, End).
func (iv Interval) Contains(t ts.Time) bool { return t >= iv.Start && t < iv.End }

// Intersect returns the overlap of two intervals; ok is false when disjoint.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	lo, hi := iv.Start, iv.End
	if o.Start > lo {
		lo = o.Start
	}
	if o.End < hi {
		hi = o.End
	}
	if lo >= hi {
		return Interval{}, false
	}
	return Interval{lo, hi}, true
}

// String renders the interval for debugging.
func (iv Interval) String() string { return fmt.Sprintf("[%s, %s)", iv.Start, iv.End) }
