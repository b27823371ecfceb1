package ts

import (
	"errors"
	"fmt"
	"sort"
)

// MultiSeries is a multivariate time series: at each timestamp a tuple
// y = (val_1, ..., val_k) of values is observed, one per named variable.
// This models the paper's multi-variate series where y in Y is a tuple.
// Storage is column-major: one float64 slice per variable, all sharing the
// timestamp slice.
type MultiSeries struct {
	name  string
	vars  []string
	index map[string]int
	times []Time
	cols  [][]float64
}

// ErrArity is returned when a tuple has a different arity than the series.
var ErrArity = errors.New("ts: tuple arity does not match variable count")

// NewMulti returns an empty multivariate series over the given variables.
// Variable names must be unique.
func NewMulti(name string, vars ...string) (*MultiSeries, error) {
	m := &MultiSeries{
		name:  name,
		vars:  append([]string(nil), vars...),
		index: make(map[string]int, len(vars)),
		cols:  make([][]float64, len(vars)),
	}
	for i, v := range vars {
		if _, dup := m.index[v]; dup {
			return nil, fmt.Errorf("ts: duplicate variable %q", v)
		}
		m.index[v] = i
	}
	return m, nil
}

// MustNewMulti is NewMulti that panics on error.
func MustNewMulti(name string, vars ...string) *MultiSeries {
	m, err := NewMulti(name, vars...)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the series name.
func (m *MultiSeries) Name() string { return m.name }

// SetName renames the series.
func (m *MultiSeries) SetName(name string) { m.name = name }

// Vars returns the variable names in column order.
func (m *MultiSeries) Vars() []string { return append([]string(nil), m.vars...) }

// Arity returns the number of variables k.
func (m *MultiSeries) Arity() int { return len(m.vars) }

// Len returns the number of observations.
func (m *MultiSeries) Len() int { return len(m.times) }

// Start returns the first timestamp, or MaxTime if empty.
func (m *MultiSeries) Start() Time {
	if len(m.times) == 0 {
		return MaxTime
	}
	return m.times[0]
}

// End returns the last timestamp, or a negative sentinel if empty.
func (m *MultiSeries) End() Time {
	if len(m.times) == 0 {
		return -1
	}
	return m.times[len(m.times)-1]
}

// TimeAt returns the i-th timestamp.
func (m *MultiSeries) TimeAt(i int) Time { return m.times[i] }

// Tuple returns the i-th observation tuple in variable order.
func (m *MultiSeries) Tuple(i int) []float64 {
	out := make([]float64, len(m.cols))
	for c := range m.cols {
		out[c] = m.cols[c][i]
	}
	return out
}

// Append adds an observation strictly after the current end, mirroring
// Series.Append.
func (m *MultiSeries) Append(t Time, tuple ...float64) error {
	if len(tuple) != len(m.vars) {
		return ErrArity
	}
	if n := len(m.times); n > 0 && t <= m.times[n-1] {
		return ErrOutOfOrder
	}
	m.times = append(m.times, t)
	for c := range m.cols {
		m.cols[c] = append(m.cols[c], tuple[c])
	}
	return nil
}

// Upsert inserts an observation at its chronological position, replacing
// the tuple when the timestamp already exists — the multivariate analogue
// of Series.Upsert (stale data replacement, requirement R3).
func (m *MultiSeries) Upsert(t Time, tuple ...float64) error {
	if len(tuple) != len(m.vars) {
		return ErrArity
	}
	i := sort.Search(len(m.times), func(i int) bool { return m.times[i] >= t })
	if i < len(m.times) && m.times[i] == t {
		for c := range m.cols {
			m.cols[c][i] = tuple[c]
		}
		return nil
	}
	m.times = append(m.times, 0)
	copy(m.times[i+1:], m.times[i:])
	m.times[i] = t
	for c := range m.cols {
		m.cols[c] = append(m.cols[c], 0)
		copy(m.cols[c][i+1:], m.cols[c][i:])
		m.cols[c][i] = tuple[c]
	}
	return nil
}

// Var extracts one variable as a univariate Series named "name.var". The
// result copies the data.
func (m *MultiSeries) Var(v string) (*Series, bool) {
	c, ok := m.index[v]
	if !ok {
		return nil, false
	}
	return &Series{
		name:  m.name + "." + v,
		times: append([]Time(nil), m.times...),
		vals:  append([]float64(nil), m.cols[c]...),
	}, true
}

// MustVar is Var that panics when the variable is missing.
func (m *MultiSeries) MustVar(v string) *Series {
	s, ok := m.Var(v)
	if !ok {
		panic(fmt.Sprintf("ts: no variable %q in %s", v, m.name))
	}
	return s
}

// Slice returns observations with start <= t < end as a new MultiSeries.
func (m *MultiSeries) Slice(start, end Time) *MultiSeries {
	lo := sort.Search(len(m.times), func(i int) bool { return m.times[i] >= start })
	hi := sort.Search(len(m.times), func(i int) bool { return m.times[i] >= end })
	out := MustNewMulti(m.name, m.vars...)
	out.times = append([]Time(nil), m.times[lo:hi]...)
	for c := range m.cols {
		out.cols[c] = append([]float64(nil), m.cols[c][lo:hi]...)
	}
	return out
}

// Clone returns a deep copy.
func (m *MultiSeries) Clone() *MultiSeries {
	out := MustNewMulti(m.name, m.vars...)
	out.times = append([]Time(nil), m.times...)
	for c := range m.cols {
		out.cols[c] = append([]float64(nil), m.cols[c]...)
	}
	return out
}

// Combine zips univariate series with identical timestamps into one
// multivariate series whose variables are the input series names.
func Combine(name string, parts ...*Series) (*MultiSeries, error) {
	if len(parts) == 0 {
		return NewMulti(name)
	}
	n := parts[0].Len()
	vars := make([]string, len(parts))
	for i, p := range parts {
		if p.Len() != n {
			return nil, fmt.Errorf("ts: Combine length mismatch: %d vs %d", p.Len(), n)
		}
		vars[i] = p.Name()
	}
	m, err := NewMulti(name, vars...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 1; j < len(parts); j++ {
			if parts[j].TimeAt(i) != parts[0].TimeAt(i) {
				return nil, fmt.Errorf("ts: Combine timestamp mismatch at index %d", i)
			}
		}
	}
	m.times = parts[0].Times()
	for j, p := range parts {
		m.cols[j] = p.Values()
	}
	return m, nil
}

// String renders a compact debug representation.
func (m *MultiSeries) String() string {
	return fmt.Sprintf("MultiSeries(%s, k=%d, n=%d)", m.name, len(m.vars), len(m.times))
}
