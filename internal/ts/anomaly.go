package ts

import "math"

// Anomaly is one detected outlier: the point and a non-negative score where
// larger means more anomalous.
type Anomaly struct {
	Index int
	T     Time
	V     float64
	Score float64
}

// ZScoreAnomalies flags points whose |value - mean| exceeds threshold
// standard deviations. Score is the absolute z-score. This is the simplest
// distance-based detector in the paper's Listing 2 spirit.
func (s *Series) ZScoreAnomalies(threshold float64) []Anomaly {
	mu := s.Mean()
	sd := s.Std()
	if sd == 0 || math.IsNaN(sd) {
		return nil
	}
	var out []Anomaly
	for i, v := range s.vals {
		if z := math.Abs(v-mu) / sd; z > threshold {
			out = append(out, Anomaly{i, s.times[i], v, z})
		}
	}
	return out
}

// RollingZAnomalies flags points whose deviation from the trailing window
// mean exceeds threshold trailing standard deviations. window is in points
// and must be >= 2; the first window points are never flagged. Detects local
// bursts — the paper's "several significant peaks within a short interval".
func (s *Series) RollingZAnomalies(window int, threshold float64) []Anomaly {
	if window < 2 || s.Len() <= window {
		return nil
	}
	var out []Anomaly
	for i := window; i < s.Len(); i++ {
		w := s.vals[i-window : i]
		mu := mean(w)
		sd := std(w)
		if sd == 0 {
			continue
		}
		if z := math.Abs(s.vals[i]-mu) / sd; z > threshold {
			out = append(out, Anomaly{i, s.times[i], s.vals[i], z})
		}
	}
	return out
}
