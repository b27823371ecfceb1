package bench

// Sample-statistics helpers shared by every bench section (Table 1, storage,
// partitions). One guarded implementation — the guards (empty input, n<2,
// zero mean) live here exactly once so new reporters cannot reintroduce a
// ±Inf CV by re-deriving them.

import "math"

// stats returns mean and coefficient of variation (%) of samples. CV uses
// the sample (n−1) standard deviation — the paper's convention for its Reps
// repetitions — since the reps are a sample of the latency distribution,
// not the population; the population formula understated spread at the
// Reps=7 default. With fewer than two samples, or a zero mean (which would
// divide away to ±Inf), CV is reported as 0.
func stats(samples []float64) (mean, cv float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	for _, s := range samples {
		mean += s
	}
	mean /= float64(n)
	if n < 2 || mean == 0 {
		return mean, 0
	}
	var acc float64
	for _, s := range samples {
		d := s - mean
		acc += d * d
	}
	sd := math.Sqrt(acc / float64(n-1))
	cv = 100 * sd / math.Abs(mean)
	return mean, cv
}

// minSample returns the smallest sample, or 0 for an empty slice — the
// best-case latency estimator the storage deltas use (min is robust to
// one-off scheduler noise where mean is not).
func minSample(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
