package ts

import "fmt"

// BucketStart returns the start of the width-aligned bucket containing t:
// the largest multiple of width that is <= t, correct for negative times.
// Resample and the time-series store's Downsample share this alignment, so
// both land points in identical buckets.
func BucketStart(t, width Time) Time {
	b := t / width * width
	if t < 0 && t%width != 0 {
		b -= width
	}
	return b
}

// Resample downsamples the series to buckets of the given width, applying f
// within each bucket. Bucket boundaries are aligned to multiples of width;
// the output point for a bucket is stamped at the bucket start. Empty
// buckets produce no output point. This is the paper's Q2 "downsampling"
// primitive (Table 2) and is paired with graph aggregation by
// core.Aggregate.
func (s *Series) Resample(width Time, f AggFunc) *Series {
	out := New(fmt.Sprintf("%s_per_%d%s", s.name, width, "ms"))
	if width <= 0 || s.Len() == 0 {
		return out
	}
	bucketOf := func(t Time) Time { return BucketStart(t, width) }
	start := 0
	cur := bucketOf(s.times[0])
	flush := func(hi int) {
		if hi > start {
			out.times = append(out.times, cur)
			out.vals = append(out.vals, f.Apply(s.vals[start:hi]))
		}
		start = hi
	}
	for i, t := range s.times {
		if b := bucketOf(t); b != cur {
			flush(i)
			cur = b
		}
	}
	flush(s.Len())
	return out
}

// Align resamples both series onto the shared bucket grid of the given width
// using f, keeping only buckets present in both. The returned slices have
// equal length and correspond position-wise; the bucket timestamps are also
// returned. Alignment is the prerequisite for correlation between
// irregularly sampled series.
func Align(a, b *Series, width Time, f AggFunc) (av, bv []float64, buckets []Time) {
	ra := a.Resample(width, f)
	rb := b.Resample(width, f)
	i, j := 0, 0
	for i < ra.Len() && j < rb.Len() {
		switch {
		case ra.times[i] < rb.times[j]:
			i++
		case ra.times[i] > rb.times[j]:
			j++
		default:
			buckets = append(buckets, ra.times[i])
			av = append(av, ra.vals[i])
			bv = append(bv, rb.vals[j])
			i++
			j++
		}
	}
	return av, bv, buckets
}

// PAA computes the piecewise aggregate approximation with the given number
// of segments: the series is split into nSeg equal-count segments and each is
// replaced by its mean. It returns the segment means; used by SAX and as a
// cheap dimensionality reduction for subsequence search.
func (s *Series) PAA(nSeg int) []float64 {
	n := s.Len()
	if nSeg <= 0 || n == 0 {
		return nil
	}
	if nSeg > n {
		nSeg = n
	}
	out := make([]float64, nSeg)
	for k := 0; k < nSeg; k++ {
		lo := k * n / nSeg
		hi := (k + 1) * n / nSeg
		out[k] = mean(s.vals[lo:hi])
	}
	return out
}

// saxBreakpoints holds the standard normal breakpoints for alphabet sizes
// 2..8 used by SAX.
var saxBreakpoints = map[int][]float64{
	2: {0},
	3: {-0.43, 0.43},
	4: {-0.67, 0, 0.67},
	5: {-0.84, -0.25, 0.25, 0.84},
	6: {-0.97, -0.43, 0, 0.43, 0.97},
	7: {-1.07, -0.57, -0.18, 0.18, 0.57, 1.07},
	8: {-1.15, -0.67, -0.32, 0, 0.32, 0.67, 1.15},
}

// SAX computes the symbolic aggregate approximation of the series:
// z-normalize, PAA to nSeg segments, then quantize each segment mean into an
// alphabet of the given size (2..8), returning a string over 'a', 'b', ...
// SAX words let graph-side operators treat series as discrete labels.
func (s *Series) SAX(nSeg, alphabet int) (string, error) {
	bps, ok := saxBreakpoints[alphabet]
	if !ok {
		return "", fmt.Errorf("ts: SAX alphabet size %d not in [2,8]", alphabet)
	}
	paa := s.ZNormalize().PAAOn(nSeg)
	word := make([]byte, len(paa))
	for i, v := range paa {
		sym := 0
		for _, bp := range bps {
			if v > bp {
				sym++
			}
		}
		word[i] = byte('a' + sym)
	}
	return string(word), nil
}

// PAAOn is PAA exposed on an already-normalized receiver; identical to PAA
// but named to make z-normalized call sites explicit.
func (s *Series) PAAOn(nSeg int) []float64 { return s.PAA(nSeg) }
