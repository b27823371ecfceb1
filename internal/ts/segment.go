package ts

import "math"

// Segment is one piece of a segmentation: the half-open point-index range
// [Lo, Hi) with its mean value and the corresponding time span.
type Segment struct {
	Lo, Hi     int
	Start, End Time // Start = time of first point, End = time of last point
	Mean       float64
	Cost       float64 // sum of squared residuals within the segment
}

// Segmentize splits the series into at most maxSegments pieces using greedy
// top-down binary segmentation on squared-error cost: repeatedly split the
// segment whose best split reduces total cost the most, stopping early when
// the best relative improvement falls below minGain (e.g. 0.01 for 1%).
// This implements the paper's Q4 time-series primitive (segmentation,
// Table 2); core.SegmentSnapshots pairs the returned breakpoints with TPG
// snapshots.
func (s *Series) Segmentize(maxSegments int, minGain float64) []Segment {
	n := s.Len()
	if n == 0 || maxSegments <= 0 {
		return nil
	}
	// Prefix sums for O(1) segment cost.
	ps := make([]float64, n+1)  // sum of values
	ps2 := make([]float64, n+1) // sum of squares
	for i, v := range s.vals {
		ps[i+1] = ps[i] + v
		ps2[i+1] = ps2[i] + v*v
	}
	cost := func(lo, hi int) float64 { // SSE of vals[lo:hi] about its mean
		c := float64(hi - lo)
		if c == 0 {
			return 0
		}
		su := ps[hi] - ps[lo]
		return (ps2[hi] - ps2[lo]) - su*su/c
	}
	type piece struct{ lo, hi int }
	pieces := []piece{{0, n}}
	total := cost(0, n)
	for len(pieces) < maxSegments {
		bestGain := 0.0
		bestPiece, bestSplit := -1, -1
		for pi, p := range pieces {
			if p.hi-p.lo < 2 {
				continue
			}
			base := cost(p.lo, p.hi)
			for k := p.lo + 1; k < p.hi; k++ {
				if g := base - cost(p.lo, k) - cost(k, p.hi); g > bestGain {
					bestGain = g
					bestPiece = pi
					bestSplit = k
				}
			}
		}
		if bestPiece < 0 {
			break
		}
		if total > 0 && bestGain/total < minGain {
			break
		}
		p := pieces[bestPiece]
		pieces[bestPiece] = piece{p.lo, bestSplit}
		pieces = append(pieces, piece{bestSplit, p.hi})
		total -= bestGain
		if total < 0 {
			total = 0
		}
	}
	// Order pieces by position and materialize.
	ordered := make([]Segment, 0, len(pieces))
	for _, p := range pieces {
		ordered = append(ordered, Segment{
			Lo: p.lo, Hi: p.hi,
			Start: s.times[p.lo], End: s.times[p.hi-1],
			Mean: (ps[p.hi] - ps[p.lo]) / float64(p.hi-p.lo),
			Cost: cost(p.lo, p.hi),
		})
	}
	sortSegments(ordered)
	return ordered
}

func sortSegments(segs []Segment) {
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].Lo < segs[j-1].Lo; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
}

// Trend fits an ordinary least squares line v = a + b·x over the point
// indexes and returns intercept a and slope b (per point step). Slope is the
// basic "trend" feature used for classification (Table 2, C1).
func (s *Series) Trend() (intercept, slope float64) {
	n := float64(s.Len())
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s.vals[0], 0
	}
	var sx, sy, sxx, sxy float64
	for i, v := range s.vals {
		x := float64(i)
		sx += x
		sy += v
		sxx += x * x
		sxy += x * v
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return intercept, slope
}
