package ts

import (
	"math"
	"sort"
)

// SubMatch is one subsequence-match result: the window [Start, Start+Len)
// of the haystack (by point index) and its distance to the query.
type SubMatch struct {
	Start int
	Len   int
	Dist  float64
}

// SubsequenceMatches slides the query over the haystack and returns the k
// best non-overlapping windows by z-normalized Euclidean distance, sorted by
// ascending distance. This is the paper's Q1 time-series primitive
// (subsequence matching, Table 2) and the TS half of hybrid pattern
// matching. A k <= 0 returns all non-overlapping matches in distance order.
func SubsequenceMatches(haystack, query *Series, k int) []SubMatch {
	m := query.Len()
	n := haystack.Len()
	if m == 0 || n < m {
		return nil
	}
	q := append([]float64(nil), query.vals...)
	znormInPlace(q)
	dists := distanceProfile(haystack.vals, q)
	order := make([]int, len(dists))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return dists[order[i]] < dists[order[j]] })
	taken := make([]bool, n)
	var out []SubMatch
	for _, idx := range order {
		if k > 0 && len(out) >= k {
			break
		}
		overlap := false
		for p := idx; p < idx+m; p++ {
			if taken[p] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for p := idx; p < idx+m; p++ {
			taken[p] = true
		}
		out = append(out, SubMatch{Start: idx, Len: m, Dist: dists[idx]})
	}
	return out
}

// distanceProfile returns, for every window start i, the z-normalized
// Euclidean distance between haystack[i:i+m] and the already-normalized
// query qz. Rolling sums give O(n·m) worst case with O(1) normalization per
// window.
func distanceProfile(hay []float64, qz []float64) []float64 {
	m := len(qz)
	n := len(hay)
	out := make([]float64, n-m+1)
	var s, s2 float64
	for i := 0; i < m; i++ {
		s += hay[i]
		s2 += hay[i] * hay[i]
	}
	for i := 0; i+m <= n; i++ {
		if i > 0 {
			s += hay[i+m-1] - hay[i-1]
			s2 += hay[i+m-1]*hay[i+m-1] - hay[i-1]*hay[i-1]
		}
		mu := s / float64(m)
		va := s2/float64(m) - mu*mu
		if va < 0 {
			va = 0
		}
		sd := math.Sqrt(va)
		var acc float64
		if sd == 0 {
			// Constant window: its z-norm is all zeros.
			for j := 0; j < m; j++ {
				acc += qz[j] * qz[j]
			}
		} else {
			for j := 0; j < m; j++ {
				d := (hay[i+j]-mu)/sd - qz[j]
				acc += d * d
			}
		}
		out[i] = math.Sqrt(acc)
	}
	return out
}
