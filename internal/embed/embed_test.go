package embed

import (
	"math"
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// twoCliques builds two k-cliques joined by one bridge.
func twoCliques(k int) (*lpg.Graph, []lpg.VertexID, []lpg.VertexID) {
	g := lpg.NewGraph()
	mk := func() []lpg.VertexID {
		ids := make([]lpg.VertexID, k)
		for i := range ids {
			ids[i] = g.AddVertex("V")
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(ids[i], ids[j], "e")
			}
		}
		return ids
	}
	a := mk()
	b := mk()
	g.AddEdge(a[0], b[0], "bridge")
	return g, a, b
}

// meanIntraInterSim returns mean cosine within group a vs across groups.
func meanIntraInterSim(m *Matrix, idx map[lpg.VertexID]int, a, b []lpg.VertexID) (intra, inter float64) {
	var ni, nx int
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			intra += cosineSim(m.Row(idx[a[i]]), m.Row(idx[a[j]]))
			ni++
		}
	}
	for _, x := range a {
		for _, y := range b {
			inter += cosineSim(m.Row(idx[x]), m.Row(idx[y]))
			nx++
		}
	}
	return intra / float64(ni), inter / float64(nx)
}

// cosineSim returns the cosine similarity of two equal-length vectors — the
// oracle the community-separation test scores embeddings with.
func cosineSim(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func TestFastRPSeparatesCommunities(t *testing.T) {
	g, a, b := twoCliques(8)
	m, idx := FastRP(g, DefaultFastRP())
	if m.Rows != 16 || m.Cols != 32 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	intra, inter := meanIntraInterSim(m, idx, a, b)
	if intra <= inter {
		t.Fatalf("intra %v <= inter %v", intra, inter)
	}
}

func TestFastRPDeterministic(t *testing.T) {
	g, _, _ := twoCliques(5)
	m1, _ := FastRP(g, DefaultFastRP())
	m2, _ := FastRP(g, DefaultFastRP())
	for i := range m1.Data {
		if m1.Data[i] != m2.Data[i] {
			t.Fatal("same seed produced different embeddings")
		}
	}
	cfg := DefaultFastRP()
	cfg.Seed = 99
	m3, _ := FastRP(g, cfg)
	same := true
	for i := range m1.Data {
		if m1.Data[i] != m3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical embeddings")
	}
}

func TestFastRPNormalization(t *testing.T) {
	g, _, _ := twoCliques(4)
	m, _ := FastRP(g, DefaultFastRP())
	for i := 0; i < m.Rows; i++ {
		var norm float64
		for _, v := range m.Row(i) {
			norm += v * v
		}
		if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
			t.Fatalf("row %d norm %v", i, math.Sqrt(norm))
		}
	}
}

func sqd(x float64) float64 { return x * x }

func TestSeriesFeatures(t *testing.T) {
	s1 := ts.FromSamples("a", 0, 1, []float64{1, 2, 3, 4})
	s2 := ts.FromSamples("b", 0, 1, []float64{4, 4, 4, 4})
	f := SeriesFeatures([]*ts.Series{s1, s2})
	if f.Rows != 2 || f.Cols != ts.NumFeatures {
		t.Fatalf("shape %dx%d", f.Rows, f.Cols)
	}
	for i, s := range []*ts.Series{s1, s2} {
		for j, v := range s.Features() {
			if f.At(i, j) != v {
				t.Fatalf("row %d col %d = %v, want %v", i, j, f.At(i, j), v)
			}
		}
	}
}

func TestStandardizeColumns(t *testing.T) {
	m := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		m.Set(i, 0, float64(i)*100)
		m.Set(i, 1, 7) // constant
	}
	StandardizeColumns(m)
	var mean, variance float64
	for i := 0; i < 4; i++ {
		mean += m.At(i, 0)
	}
	mean /= 4
	for i := 0; i < 4; i++ {
		variance += sqd(m.At(i, 0) - mean)
	}
	variance /= 4
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-9 {
		t.Fatalf("standardized mean=%v var=%v", mean, variance)
	}
	for i := 0; i < 4; i++ {
		if m.At(i, 1) != 0 {
			t.Fatal("constant column should become zeros")
		}
	}
}

func TestCosineSim(t *testing.T) {
	if got := cosineSim([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("parallel=%v", got)
	}
	if got := cosineSim([]float64{1, 0}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Fatalf("orthogonal=%v", got)
	}
	if got := cosineSim([]float64{1, 0}, []float64{-1, 0}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("antiparallel=%v", got)
	}
	if got := cosineSim([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Fatalf("zero vector=%v", got)
	}
}
