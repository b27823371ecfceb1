// Package lpg implements the labeled-property-graph substrate: vertices and
// edges carrying labels and typed properties, adjacency and a label index,
// subgraph pattern matching, vertex degrees and community detection.
//
// Property values follow the paper's split N = N_Σ ∪ N_TS: a property is
// either a static scalar or a whole time series. The latter is what the
// "time series as properties" integration stores (Figure 3, arrow 8); the
// HyGraph core additionally models series as first-class vertices/edges.
package lpg

import (
	"fmt"
	"strconv"

	"hygraph/internal/ts"
)

// Kind enumerates the property value types.
type Kind int

// Supported value kinds. KindSeries, KindMulti and KindSeriesRef are the
// N_TS values of the paper; the rest are the static N_Σ values.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindSeries
	KindMulti
	KindSeriesRef
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindSeries:
		return "series"
	case KindMulti:
		return "multiseries"
	case KindSeriesRef:
		return "seriesref"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a typed property value. The zero Value is null.
type Value struct {
	kind  Kind
	i     int64
	f     float64
	s     string
	b     bool
	ser   *ts.Series
	multi *ts.MultiSeries
	ref   any // KindSeriesRef handle
}

// Null is the null value.
var Null = Value{}

// Bool wraps a bool.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Str wraps a string.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// SeriesVal wraps a univariate time series (a N_TS property value).
func SeriesVal(s *ts.Series) Value { return Value{kind: KindSeries, ser: s} }

// MultiVal wraps a multivariate time series.
func MultiVal(m *ts.MultiSeries) Value { return Value{kind: KindMulti, multi: m} }

// SeriesRef wraps a handle to a series whose samples live outside the graph,
// in a time-series store: the graph holds the series' identity, the store its
// measurements. lpg never looks inside the handle; whoever attached it reads
// it back with AsSeriesRef. Handles must be comparable (pointers are).
func SeriesRef(handle any) Value { return Value{kind: KindSeriesRef, ref: handle} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsSeries reports whether the value is a (multi)series, held inline or by
// reference — an N_TS value.
func (v Value) IsSeries() bool {
	return v.kind == KindSeries || v.kind == KindMulti || v.kind == KindSeriesRef
}

// AsBool returns the bool payload.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == KindBool }

// AsInt returns the int payload.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsFloat returns a float view of numeric payloads (int or float).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	}
	return 0, false
}

// AsString returns the string payload.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsSeries returns the series payload.
func (v Value) AsSeries() (*ts.Series, bool) { return v.ser, v.kind == KindSeries }

// AsMulti returns the multiseries payload.
func (v Value) AsMulti() (*ts.MultiSeries, bool) { return v.multi, v.kind == KindMulti }

// AsSeriesRef returns the handle of a series held by reference.
func (v Value) AsSeriesRef() (any, bool) { return v.ref, v.kind == KindSeriesRef }

// Compare orders two values: null < bool < int/float (numeric order) <
// string < series (by length; series held by reference all tie).
// Values of incomparable kinds order by kind. Returns -1, 0 or 1.
func (v Value) Compare(o Value) int {
	ka, kb := v.orderClass(), o.orderClass()
	if ka != kb {
		return cmpInt(ka, kb)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmpBool(v.b, o.b)
	case KindString:
		return cmpString(v.s, o.s)
	case KindSeries:
		return cmpInt(v.ser.Len(), o.ser.Len())
	case KindMulti:
		return cmpInt(v.multi.Len(), o.multi.Len())
	case KindSeriesRef:
		return 0
	default: // numeric
		fa, _ := v.AsFloat()
		fb, _ := o.AsFloat()
		return cmpFloat(fa, fb)
	}
}

// orderClass folds int and float into one comparable class.
func (v Value) orderClass() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindSeries:
		return 4
	case KindMulti:
		return 5
	default:
		return 6
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// String renders the value for debugging and query output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindSeries:
		return v.ser.String()
	case KindMulti:
		return v.multi.String()
	case KindSeriesRef:
		return fmt.Sprint(v.ref)
	}
	return "?"
}
