package ts

import (
	"math"
	"testing"
)

func TestSubsequenceMatches(t *testing.T) {
	// Haystack with the query shape planted at positions 10 and 40.
	hay := make([]float64, 60)
	shape := []float64{0, 3, 6, 3, 0}
	for i := range hay {
		hay[i] = 0.01 * float64(i%3)
	}
	copy(hay[10:], shape)
	copy(hay[40:], shape)
	h := FromSamples("h", 0, 1, hay)
	q := FromSamples("q", 0, 1, shape)
	matches := SubsequenceMatches(h, q, 2)
	if len(matches) != 2 {
		t.Fatalf("matches=%v", matches)
	}
	found := map[int]bool{}
	for _, m := range matches {
		found[m.Start] = true
		if m.Dist > 0.5 {
			t.Fatalf("planted match has distance %v", m.Dist)
		}
	}
	if !found[10] || !found[40] {
		t.Fatalf("wrong match positions: %v", matches)
	}
}

func TestSubsequenceMatchesNonOverlap(t *testing.T) {
	hay := make([]float64, 30)
	for i := range hay {
		hay[i] = math.Sin(float64(i))
	}
	h := FromSamples("h", 0, 1, hay)
	q := h.Slice(5, 11) // 6-point query taken from the haystack
	ms := SubsequenceMatches(h, q, 0)
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			a, b := ms[i], ms[j]
			if a.Start < b.Start+b.Len && b.Start < a.Start+a.Len {
				t.Fatalf("overlapping matches %v %v", a, b)
			}
		}
	}
	if len(ms) == 0 || ms[0].Dist > 1e-9 {
		t.Fatalf("exact subsequence not found first: %v", ms)
	}
}

func TestSubsequenceMatchesDegenerate(t *testing.T) {
	h := FromSamples("h", 0, 1, []float64{1, 2})
	q := FromSamples("q", 0, 1, []float64{1, 2, 3})
	if got := SubsequenceMatches(h, q, 1); got != nil {
		t.Fatalf("query longer than haystack: %v", got)
	}
	if got := SubsequenceMatches(h, New("e"), 1); got != nil {
		t.Fatalf("empty query: %v", got)
	}
}
