package hyql

import (
	"math"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// Series is what a ts.* function needs of the series it is applied to. Every
// ts.* function evaluates through it, so where the samples live is the
// implementation's business: memSeries reads a *ts.Series held in the graph
// (the paper-model path), a store-backed handle (ttdb.StoreSeries) reads a
// time-series store in place — aggregates from chunk summaries, windowed
// resamples from the store's aggregate cache, and a decode of exactly the
// requested window for everything else. Windows are half-open, [start, end).
//
// A value reaches the evaluator as the `_series` property of a TS element (or
// any series-valued property): inline as lpg.SeriesVal / lpg.MultiVal, or by
// reference as lpg.SeriesRef wrapping a Series.
type Series interface {
	// Span reports the first and last sample times; ok is false when the
	// series has no samples. A TS element is valid over exactly this span.
	Span() (first, last ts.Time, ok bool)
	// Aggregate folds the samples of the window under agg, with ts.AggFunc's
	// semantics (NaN for an empty window, except count and sum).
	Aggregate(agg ts.AggFunc, start, end ts.Time) float64
	// Range returns the samples of the window in time order. The result is
	// read-only and may alias the series.
	Range(start, end ts.Time) *ts.Series
	// Resample buckets the window at the given width under agg, one point
	// per non-empty bucket stamped at the bucket start.
	Resample(start, end, bucket ts.Time, agg ts.AggFunc) *ts.Series
	// Corr is the Pearson correlation with another series over the window,
	// both resampled onto the shared bucket grid by mean; NaN when fewer
	// than two buckets are shared or a side is constant.
	Corr(other Series, start, end, bucket ts.Time) float64
}

// The window of the unwindowed ts.f(x) forms: every representable instant.
const (
	wholeStart = ts.Time(math.MinInt64)
	wholeEnd   = ts.MaxTime
)

// memSeries is Series over samples held in memory.
type memSeries struct{ s *ts.Series }

func (m memSeries) Span() (ts.Time, ts.Time, bool) {
	if m.s.Empty() {
		return 0, 0, false
	}
	return m.s.Start(), m.s.End(), true
}

func (m memSeries) Aggregate(agg ts.AggFunc, start, end ts.Time) float64 {
	return m.s.AggregateRange(agg, start, end)
}

func (m memSeries) Range(start, end ts.Time) *ts.Series { return m.s.SliceView(start, end) }

func (m memSeries) Resample(start, end, bucket ts.Time, agg ts.AggFunc) *ts.Series {
	return m.s.SliceView(start, end).Resample(bucket, agg)
}

func (m memSeries) Corr(other Series, start, end, bucket ts.Time) float64 {
	return ResampledCorr(m, other, start, end, bucket)
}

// ResampledCorr is Series.Corr spelled with Resample alone, for pairs whose
// samples do not live in one place. Each side is already one mean per bucket,
// so the bucketing inside ts.Correlation is the identity and only its
// join-and-Pearson step does work.
func ResampledCorr(a, b Series, start, end, bucket ts.Time) float64 {
	return ts.Correlation(
		a.Resample(start, end, bucket, ts.AggMean),
		b.Resample(start, end, bucket, ts.AggMean), bucket)
}

// seriesOf reads a property value as a Series: the first variable of an
// inline multiseries, an inline series, or a series held by reference.
func seriesOf(v lpg.Value) (Series, bool) {
	if m, ok := v.AsMulti(); ok {
		if len(m.Vars()) == 0 {
			return nil, false
		}
		return memSeries{m.MustVar(m.Vars()[0])}, true
	}
	if s, ok := v.AsSeries(); ok {
		return memSeries{s}, true
	}
	if r, ok := v.AsSeriesRef(); ok {
		s, ok := r.(Series)
		return s, ok
	}
	return nil, false
}
