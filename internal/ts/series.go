// Package ts implements the time-series substrate of the HyGraph
// reproduction: univariate and multivariate series with chronologically
// ordered timestamps, range queries, resampling, aggregation, correlation,
// distance measures, segmentation, anomaly detection, motif discovery and
// simple forecasting.
//
// A series is an ordered set of (timestamp, value) observations, matching the
// paper's definition ts = {(t1,y1), ..., (tn,yn)}. Timestamps are int64
// milliseconds since the Unix epoch (see Time). Chronological integrity —
// requirement R2 of the paper — is enforced on every mutation: Append rejects
// out-of-order points while Upsert replaces stale values in place
// (requirement R3).
package ts

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	gotime "time"
)

// Time is a timestamp in milliseconds since the Unix epoch. The paper's set T
// of ordered timestamps is modeled by the natural order of this type.
type Time int64

// Common durations expressed in Time units (milliseconds).
const (
	Second Time = 1000
	Minute Time = 60 * Second
	Hour   Time = 60 * Minute
	Day    Time = 24 * Hour
	Week   Time = 7 * Day
)

// MaxTime is the largest representable timestamp. The paper initializes
// t_end of valid intervals to max(T); callers use MaxTime for that purpose.
const MaxTime Time = math.MaxInt64

// FromGoTime converts a time.Time to a Time.
func FromGoTime(t gotime.Time) Time { return Time(t.UnixMilli()) }

// GoTime converts a Time back to a time.Time in UTC.
func (t Time) GoTime() gotime.Time { return gotime.UnixMilli(int64(t)).UTC() }

// String renders the timestamp as RFC 3339 for debugging and reports.
func (t Time) String() string {
	if t == MaxTime {
		return "max"
	}
	return t.GoTime().Format(gotime.RFC3339)
}

// Point is a single univariate observation.
type Point struct {
	T Time
	V float64
}

// Series is a univariate time series. The zero value is an empty, usable
// series. All mutating methods preserve the invariant that timestamps are
// strictly increasing.
type Series struct {
	name  string
	times []Time
	vals  []float64
}

// ErrOutOfOrder is returned by Append when a point does not extend the
// series chronologically.
var ErrOutOfOrder = errors.New("ts: appended point is not after the last timestamp")

// New returns an empty series with the given name.
func New(name string) *Series { return &Series{name: name} }

// FromPoints builds a series from points, sorting them by timestamp and
// keeping the last value for duplicate timestamps.
func FromPoints(name string, pts []Point) *Series {
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })
	s := New(name)
	for _, p := range sorted {
		s.Upsert(p.T, p.V)
	}
	return s
}

// FromSamples builds a series with regularly spaced timestamps starting at
// start with the given step between consecutive samples.
func FromSamples(name string, start, step Time, vals []float64) *Series {
	s := &Series{
		name:  name,
		times: make([]Time, len(vals)),
		vals:  make([]float64, len(vals)),
	}
	copy(s.vals, vals)
	for i := range vals {
		s.times[i] = start + Time(i)*step
	}
	return s
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// SetName renames the series.
func (s *Series) SetName(name string) { s.name = name }

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.times) }

// Empty reports whether the series has no observations.
func (s *Series) Empty() bool { return len(s.times) == 0 }

// At returns the i-th observation.
func (s *Series) At(i int) Point { return Point{s.times[i], s.vals[i]} }

// TimeAt returns the i-th timestamp.
func (s *Series) TimeAt(i int) Time { return s.times[i] }

// ValueAt returns the i-th value.
func (s *Series) ValueAt(i int) float64 { return s.vals[i] }

// Start returns the first timestamp, or MaxTime if the series is empty.
func (s *Series) Start() Time {
	if len(s.times) == 0 {
		return MaxTime
	}
	return s.times[0]
}

// End returns the last timestamp, or a negative sentinel if empty.
func (s *Series) End() Time {
	if len(s.times) == 0 {
		return -1
	}
	return s.times[len(s.times)-1]
}

// Append adds a point that must be strictly after the current last
// timestamp. It returns ErrOutOfOrder otherwise, enforcing chronological
// integrity (R2).
func (s *Series) Append(t Time, v float64) error {
	if n := len(s.times); n > 0 && t <= s.times[n-1] {
		return ErrOutOfOrder
	}
	s.times = append(s.times, t)
	s.vals = append(s.vals, v)
	return nil
}

// MustAppend is Append that panics on error; intended for tests and
// generators where ordering is known by construction.
func (s *Series) MustAppend(t Time, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(fmt.Sprintf("ts: MustAppend(%d) on series ending at %d: %v", t, s.End(), err))
	}
}

// Upsert inserts a point at its chronological position, replacing the value
// if the timestamp already exists. This is the paper's "replacing stale data
// without compromising the structure's integrity" (R3). Appends at the end
// are O(1); interior inserts are O(n).
func (s *Series) Upsert(t Time, v float64) {
	i := s.searchTime(t)
	if i < len(s.times) && s.times[i] == t {
		s.vals[i] = v
		return
	}
	s.times = append(s.times, 0)
	s.vals = append(s.vals, 0)
	copy(s.times[i+1:], s.times[i:])
	copy(s.vals[i+1:], s.vals[i:])
	s.times[i] = t
	s.vals[i] = v
}

// Delete removes the observation at timestamp t, reporting whether one
// existed.
func (s *Series) Delete(t Time) bool {
	i := s.searchTime(t)
	if i >= len(s.times) || s.times[i] != t {
		return false
	}
	s.times = append(s.times[:i], s.times[i+1:]...)
	s.vals = append(s.vals[:i], s.vals[i+1:]...)
	return true
}

// searchTime returns the smallest index i with times[i] >= t.
func (s *Series) searchTime(t Time) int {
	return sort.Search(len(s.times), func(i int) bool { return s.times[i] >= t })
}

// Lookup returns the value at exactly t.
func (s *Series) Lookup(t Time) (float64, bool) {
	i := s.searchTime(t)
	if i < len(s.times) && s.times[i] == t {
		return s.vals[i], true
	}
	return 0, false
}

// ValueAtOrBefore returns the most recent value at or before t, the usual
// "as of" lookup in temporal databases.
func (s *Series) ValueAtOrBefore(t Time) (float64, bool) {
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t })
	if i == 0 {
		return 0, false
	}
	return s.vals[i-1], true
}

// window returns the index range of the observations with start <= t < end;
// the range is empty, never inverted, when end <= start.
func (s *Series) window(start, end Time) (lo, hi int) {
	lo, hi = s.searchTime(start), s.searchTime(end)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Slice returns the observations with start <= t < end as a new series
// sharing no storage with s.
func (s *Series) Slice(start, end Time) *Series {
	lo, hi := s.window(start, end)
	out := &Series{
		name:  s.name,
		times: append([]Time(nil), s.times[lo:hi]...),
		vals:  append([]float64(nil), s.vals[lo:hi]...),
	}
	return out
}

// SliceView returns a read-only view of the observations with
// start <= t < end without copying. The view aliases s and must not be
// mutated while s is in use.
func (s *Series) SliceView(start, end Time) *Series {
	lo, hi := s.window(start, end)
	return &Series{name: s.name, times: s.times[lo:hi], vals: s.vals[lo:hi]}
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	return &Series{
		name:  s.name,
		times: append([]Time(nil), s.times...),
		vals:  append([]float64(nil), s.vals...),
	}
}

// Points materializes all observations.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.times))
	for i := range s.times {
		out[i] = Point{s.times[i], s.vals[i]}
	}
	return out
}

// Times returns a copy of the timestamps.
func (s *Series) Times() []Time { return append([]Time(nil), s.times...) }

// Values returns a copy of the values.
func (s *Series) Values() []float64 { return append([]float64(nil), s.vals...) }

// valuesRef returns the internal value slice for package-local hot paths.
func (s *Series) valuesRef() []float64 { return s.vals }

// Map returns a new series with f applied to every value.
func (s *Series) Map(f func(float64) float64) *Series {
	out := s.Clone()
	for i, v := range out.vals {
		out.vals[i] = f(v)
	}
	return out
}

// Filter returns a new series keeping the points for which keep returns true.
func (s *Series) Filter(keep func(Point) bool) *Series {
	out := New(s.name)
	for i := range s.times {
		if p := (Point{s.times[i], s.vals[i]}); keep(p) {
			out.times = append(out.times, p.T)
			out.vals = append(out.vals, p.V)
		}
	}
	return out
}

// Diff returns the series of first differences v[i]-v[i-1] stamped at t[i].
func (s *Series) Diff() *Series {
	out := New(s.name + "_diff")
	for i := 1; i < len(s.vals); i++ {
		out.times = append(out.times, s.times[i])
		out.vals = append(out.vals, s.vals[i]-s.vals[i-1])
	}
	return out
}

// Equal reports whether two series have identical names, timestamps, and
// values (NaNs compare equal to NaNs so round-trip tests can use it).
func (s *Series) Equal(o *Series) bool {
	if s.name != o.name || len(s.times) != len(o.times) {
		return false
	}
	for i := range s.times {
		if s.times[i] != o.times[i] {
			return false
		}
		a, b := s.vals[i], o.vals[i]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			return false
		}
	}
	return true
}

// String renders a compact debug representation.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Series(%s, n=%d", s.name, len(s.times))
	if len(s.times) > 0 {
		fmt.Fprintf(&b, ", %s..%s", s.Start(), s.End())
	}
	b.WriteString(")")
	return b.String()
}
