package ts

import "math"

// Pearson returns the Pearson correlation coefficient between two
// equal-length float sequences, or NaN when either is constant or empty.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	ma, mb := mean(a), mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da := a[i] - ma
		db := b[i] - mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return math.NaN()
	}
	return sab / math.Sqrt(saa*sbb)
}

// Correlation aligns two series onto a shared bucket grid (bucket mean) and
// returns their Pearson correlation. It is the paper's Q3 time-series
// primitive (Table 2); core.CorrelationEdges uses it to build similarity
// edges between time-series vertices. NaN is returned when fewer than two
// shared buckets exist or a side is constant.
func Correlation(a, b *Series, bucket Time) float64 {
	av, bv, _ := Align(a, b, bucket, AggMean)
	if len(av) < 2 {
		return math.NaN()
	}
	return Pearson(av, bv)
}

// laggedPearson correlates a[i] with b[i+lag] over the overlapping range.
func laggedPearson(a, b []float64, lag int) float64 {
	var xa, xb []float64
	for i := range a {
		j := i + lag
		if j < 0 || j >= len(b) {
			continue
		}
		xa = append(xa, a[i])
		xb = append(xb, b[j])
	}
	if len(xa) < 2 {
		return math.NaN()
	}
	return Pearson(xa, xb)
}

// AutoCorrelation returns the autocorrelation of the series at the given
// point lags; index i corresponds to lags[i].
func (s *Series) AutoCorrelation(lags ...int) []float64 {
	out := make([]float64, len(lags))
	for i, l := range lags {
		out[i] = laggedPearson(s.vals, s.vals, l)
	}
	return out
}
