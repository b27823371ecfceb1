package ts

import (
	"math"
	"sort"
)

// MatrixProfile computes, for every window start i of length m, the
// z-normalized Euclidean distance to the most similar *non-trivially
// overlapping* window elsewhere in the series (exclusion zone m/2 around i).
// Small values indicate motifs, large values discords. This is the
// brute-force O(n²·m) profile — adequate for the scales the benchmarks use
// and dependency-free.
func (s *Series) MatrixProfile(m int) []float64 {
	n := s.Len()
	if m < 2 || n < 2*m {
		return nil
	}
	nw := n - m + 1
	// Precompute z-normalized windows once: O(n·m) memory traded for the
	// inner loop doing pure float math.
	norm := make([][]float64, nw)
	for i := 0; i < nw; i++ {
		w := append([]float64(nil), s.vals[i:i+m]...)
		znormInPlace(w)
		norm[i] = w
	}
	excl := m / 2
	mp := make([]float64, nw)
	for i := range mp {
		mp[i] = math.Inf(1)
	}
	for i := 0; i < nw; i++ {
		for j := i + excl + 1; j < nw; j++ {
			var acc float64
			wi, wj := norm[i], norm[j]
			for p := 0; p < m; p++ {
				d := wi[p] - wj[p]
				acc += d * d
			}
			d := math.Sqrt(acc)
			if d < mp[i] {
				mp[i] = d
			}
			if d < mp[j] {
				mp[j] = d
			}
		}
	}
	return mp
}

// Motif is one recurring pattern: the two closest windows (by z-normalized
// Euclidean distance) and all additional windows within 2× that distance.
type Motif struct {
	A, B      int // window starts of the defining pair
	Len       int // window length m
	Dist      float64
	Neighbors []int // other window starts within 2·Dist of window A
}

// Motifs returns the k best motifs of window length m, best (smallest
// defining distance) first. Windows of already-reported motifs are excluded
// from later ones. This is the paper's PM time-series primitive (Table 2).
func (s *Series) Motifs(m, k int) []Motif {
	n := s.Len()
	if m < 2 || n < 2*m || k <= 0 {
		return nil
	}
	nw := n - m + 1
	norm := make([][]float64, nw)
	for i := 0; i < nw; i++ {
		w := append([]float64(nil), s.vals[i:i+m]...)
		znormInPlace(w)
		norm[i] = w
	}
	excl := m / 2
	dist := func(i, j int) float64 {
		var acc float64
		wi, wj := norm[i], norm[j]
		for p := 0; p < m; p++ {
			d := wi[p] - wj[p]
			acc += d * d
		}
		return math.Sqrt(acc)
	}
	type pair struct {
		i, j int
		d    float64
	}
	var pairs []pair
	for i := 0; i < nw; i++ {
		for j := i + excl + 1; j < nw; j++ {
			pairs = append(pairs, pair{i, j, dist(i, j)})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })
	taken := make([]bool, nw)
	overlapTaken := func(w int) bool {
		for p := max(0, w-excl); p <= min(nw-1, w+excl); p++ {
			if taken[p] {
				return true
			}
		}
		return false
	}
	var out []Motif
	for _, p := range pairs {
		if len(out) >= k {
			break
		}
		if overlapTaken(p.i) || overlapTaken(p.j) {
			continue
		}
		mo := Motif{A: p.i, B: p.j, Len: m, Dist: p.d}
		for w := 0; w < nw; w++ {
			if w == p.i || w == p.j || overlapTaken(w) {
				continue
			}
			if abs(w-p.i) <= excl || abs(w-p.j) <= excl {
				continue
			}
			if dist(p.i, w) <= 2*p.d {
				mo.Neighbors = append(mo.Neighbors, w)
			}
		}
		taken[p.i] = true
		taken[p.j] = true
		out = append(out, mo)
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
