package mark

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples, or 0 when there are none. It sorts a copy.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples. The
// small slack keeps a product like 99.9 x 1000 / 100, which is a whole number
// on paper, from rounding up past it.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// tailSteps are the percentiles a latency tail is reported at.
var tailSteps = []float64{50, 90, 99, 99.9, 99.99}

// TailPercentile returns the highest reporting percentile that still has at
// least ten samples beyond it, or 0 when even the median does not.
func TailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailSteps {
		if n > 0 && n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// Summary is a latency distribution as reported: the median, the highest
// percentile the sample supports, and the sample count.
type Summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"` // which percentile Tail is; 0 when n < 20
	Tail  float64 `json:"tail"`
}

// Summarize reports the samples as a Summary.
func Summarize(samples []float64) Summary {
	s := Summary{N: len(samples), P50: Percentile(samples, 50)}
	if s.TailP = TailPercentile(len(samples)); s.TailP > 0 {
		s.Tail = Percentile(samples, s.TailP)
	}
	return s
}

// Quartiles returns the first, second and third quartile by the exclusive
// method, which is what Python's statistics.quantiles(values, n=4) computes
// and so what the acceptance check of a benchmark run uses.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Spread is the interquartile distance as a share of the median.
func Spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := Quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
