// Package ml implements the clustering primitive and the evaluation metrics
// the Figure-4 fraud pipeline (internal/pipeline) uses from the paper's
// HyGraph-and-AI roadmap (Table 2, row C2): k-means, and binary
// precision/recall/F1 to score detectors against planted ground truth.
package ml

import (
	"math"
	"math/rand"
)

// Euclidean returns the Euclidean distance between two vectors.
func Euclidean(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

// KMeansResult is the output of KMeans.
type KMeansResult struct {
	Assign    []int       // cluster per row
	Centroids [][]float64 // k centroids
	Inertia   float64     // total within-cluster squared distance
	Iters     int
}

// KMeans clusters rows into k clusters with Lloyd's algorithm and k-means++
// seeding. Deterministic for a given seed.
func KMeans(rows [][]float64, k int, maxIter int, seed int64) KMeansResult {
	n := len(rows)
	if n == 0 || k <= 0 {
		return KMeansResult{}
	}
	if k > n {
		k = n
	}
	d := len(rows[0])
	rng := rand.New(rand.NewSource(seed))
	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), rows[rng.Intn(n)]...))
	dist2 := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, r := range rows {
			best := math.Inf(1)
			for _, c := range centroids {
				if dd := sq(Euclidean(r, c)); dd < best {
					best = dd
				}
			}
			dist2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, append([]float64(nil), rows[rng.Intn(n)]...))
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, dd := range dist2 {
			acc += dd
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), rows[pick]...))
	}
	assign := make([]int, n)
	res := KMeansResult{Assign: assign, Centroids: centroids}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, r := range rows {
			best, bi := math.Inf(1), 0
			for ci, c := range centroids {
				if dd := Euclidean(r, c); dd < best {
					best = dd
					bi = ci
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		for ci := range centroids {
			for j := 0; j < d; j++ {
				centroids[ci][j] = 0
			}
		}
		for i, r := range rows {
			ci := assign[i]
			counts[ci]++
			for j := 0; j < d; j++ {
				centroids[ci][j] += r[j]
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				// Re-seed an empty cluster at the farthest point.
				far, fi := -1.0, 0
				for i, r := range rows {
					if dd := Euclidean(r, centroids[assign[i]]); dd > far {
						far = dd
						fi = i
					}
				}
				copy(centroids[ci], rows[fi])
				continue
			}
			inv := 1 / float64(counts[ci])
			for j := 0; j < d; j++ {
				centroids[ci][j] *= inv
			}
		}
		res.Iters = iter + 1
		if !changed {
			break
		}
	}
	res.Inertia = 0
	for i, r := range rows {
		res.Inertia += sq(Euclidean(r, centroids[assign[i]]))
	}
	return res
}

func sq(x float64) float64 { return x * x }

// BinaryMetrics holds precision/recall/F1 for the positive class.
type BinaryMetrics struct {
	TP, FP, TN, FN int
}

// Evaluate compares predictions against truth (both 0/1).
func Evaluate(pred, truth []int) BinaryMetrics {
	var m BinaryMetrics
	for i := range pred {
		switch {
		case pred[i] == 1 && truth[i] == 1:
			m.TP++
		case pred[i] == 1 && truth[i] == 0:
			m.FP++
		case pred[i] == 0 && truth[i] == 0:
			m.TN++
		default:
			m.FN++
		}
	}
	return m
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (m BinaryMetrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (m BinaryMetrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m BinaryMetrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
