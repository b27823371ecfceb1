package ts

import (
	"fmt"
	"math"
	"sort"
)

// AggFunc identifies an aggregation over a window of values. The same
// vocabulary is used by resampling, rolling windows, storage pushdown
// (internal/storage/tsstore) and the HyQL ts.* functions.
type AggFunc int

// Supported aggregation functions.
const (
	AggMean AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggCount
	AggFirst
	AggLast
	AggStd
	AggMedian
)

// String returns the lower-case name of the aggregation.
func (a AggFunc) String() string {
	switch a {
	case AggMean:
		return "mean"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	case AggFirst:
		return "first"
	case AggLast:
		return "last"
	case AggStd:
		return "std"
	case AggMedian:
		return "median"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// ParseAggFunc resolves an aggregation name as used in HyQL and CLI flags.
func ParseAggFunc(name string) (AggFunc, error) {
	switch name {
	case "mean", "avg":
		return AggMean, nil
	case "sum":
		return AggSum, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "count":
		return AggCount, nil
	case "first":
		return AggFirst, nil
	case "last":
		return AggLast, nil
	case "std", "stddev":
		return AggStd, nil
	case "median":
		return AggMedian, nil
	}
	return 0, fmt.Errorf("ts: unknown aggregation %q", name)
}

// Apply computes the aggregation over vals. Empty input yields NaN except
// for count and sum, which yield 0.
func (a AggFunc) Apply(vals []float64) float64 {
	switch a {
	case AggCount:
		return float64(len(vals))
	case AggSum:
		return sum(vals)
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		return sum(vals) / float64(len(vals))
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggFirst:
		return vals[0]
	case AggLast:
		return vals[len(vals)-1]
	case AggStd:
		return std(vals)
	case AggMedian:
		return median(vals)
	default:
		return math.NaN()
	}
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return sum(vals) / float64(len(vals))
}

// std is the population standard deviation.
func std(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	mu := mean(vals)
	var acc float64
	for _, v := range vals {
		d := v - mu
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(vals)))
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), vals...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Mean returns the arithmetic mean of all values (NaN if empty).
func (s *Series) Mean() float64 { return mean(s.vals) }

// Sum returns the sum of all values.
func (s *Series) Sum() float64 { return sum(s.vals) }

// Min returns the minimum value (NaN if empty).
func (s *Series) Min() float64 { return AggMin.Apply(s.vals) }

// Max returns the maximum value (NaN if empty).
func (s *Series) Max() float64 { return AggMax.Apply(s.vals) }

// Std returns the population standard deviation (NaN if empty).
func (s *Series) Std() float64 { return std(s.vals) }

// Median returns the median value (NaN if empty).
func (s *Series) Median() float64 { return median(s.vals) }

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics.
func (s *Series) Quantile(q float64) float64 {
	if len(s.vals) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	tmp := append([]float64(nil), s.vals...)
	sort.Float64s(tmp)
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// Aggregate applies an AggFunc over the whole series.
func (s *Series) Aggregate(f AggFunc) float64 { return f.Apply(s.vals) }

// AggregateRange applies an AggFunc over the window start <= t < end without
// copying values.
func (s *Series) AggregateRange(f AggFunc, start, end Time) float64 {
	lo, hi := s.window(start, end)
	return f.Apply(s.vals[lo:hi])
}

// Rolling applies f over a sliding window of the given length (in points)
// and returns a series stamped at each window's last timestamp.
func (s *Series) Rolling(window int, f AggFunc) *Series {
	out := New(fmt.Sprintf("%s_%s%d", s.name, f, window))
	if window <= 0 || s.Len() < window {
		return out
	}
	for i := window; i <= s.Len(); i++ {
		out.times = append(out.times, s.times[i-1])
		out.vals = append(out.vals, f.Apply(s.vals[i-window:i]))
	}
	return out
}

// RollingDuration applies f over a trailing time window of the given
// duration ending at each observation (inclusive).
func (s *Series) RollingDuration(window Time, f AggFunc) *Series {
	out := New(fmt.Sprintf("%s_%s", s.name, f))
	lo := 0
	for i := range s.times {
		for s.times[lo] <= s.times[i]-window {
			lo++
		}
		out.times = append(out.times, s.times[i])
		out.vals = append(out.vals, f.Apply(s.vals[lo:i+1]))
	}
	return out
}

// ZNormalize returns the series standardized to zero mean and unit variance.
// A constant series normalizes to all zeros.
func (s *Series) ZNormalize() *Series {
	out := s.Clone()
	znormInPlace(out.vals)
	return out
}

func znormInPlace(vals []float64) {
	mu := mean(vals)
	sd := std(vals)
	for i := range vals {
		if sd == 0 || math.IsNaN(sd) {
			vals[i] = 0
		} else {
			vals[i] = (vals[i] - mu) / sd
		}
	}
}
