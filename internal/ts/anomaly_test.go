package ts

import (
	"math"
	"math/rand"
	"testing"
)

// noisySeriesWithSpikes returns a gaussian series with large spikes planted
// at the given indexes.
func noisySeriesWithSpikes(rng *rand.Rand, n int, spikeAt ...int) *Series {
	s := New("spiky")
	spikes := map[int]bool{}
	for _, i := range spikeAt {
		spikes[i] = true
	}
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		if spikes[i] {
			v += 25
		}
		s.MustAppend(Time(i)*Minute, v)
	}
	return s
}

func TestZScoreAnomalies(t *testing.T) {
	s := noisySeriesWithSpikes(rand.New(rand.NewSource(1)), 500, 100, 350)
	an := s.ZScoreAnomalies(5)
	if len(an) != 2 {
		t.Fatalf("anomalies=%v", an)
	}
	got := map[int]bool{an[0].Index: true, an[1].Index: true}
	if !got[100] || !got[350] {
		t.Fatalf("wrong positions: %v", an)
	}
	for _, a := range an {
		if a.Score <= 5 {
			t.Fatalf("score %v not above threshold", a.Score)
		}
	}
}

func TestZScoreConstantSeries(t *testing.T) {
	s := FromSamples("c", 0, 1, []float64{1, 1, 1, 1})
	if got := s.ZScoreAnomalies(1); got != nil {
		t.Fatalf("constant series flagged: %v", got)
	}
}

func TestRollingZAnomalies(t *testing.T) {
	// Gentle drift plus one sudden burst: global z-score may miss it, the
	// rolling detector must not.
	s := New("drift")
	for i := 0; i < 300; i++ {
		v := float64(i) * 0.1
		if i == 200 {
			v += 30
		}
		s.MustAppend(Time(i), v+0.01*math.Sin(float64(i)))
	}
	an := s.RollingZAnomalies(20, 6)
	found := false
	for _, a := range an {
		if a.Index == 200 {
			found = true
		}
	}
	if !found {
		t.Fatalf("burst at 200 not found: %v", an)
	}
	if got := s.RollingZAnomalies(1, 6); got != nil {
		t.Fatal("window<2 should return nil")
	}
}

func TestMatrixProfileShape(t *testing.T) {
	n := 120
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(2 * math.Pi * float64(i) / 15)
	}
	s := FromSamples("p", 0, 1, vals)
	m := 15
	mp := s.MatrixProfile(m)
	if len(mp) != n-m+1 {
		t.Fatalf("profile len=%d want %d", len(mp), n-m+1)
	}
	// A perfectly periodic series has near-zero profile values everywhere.
	for i, v := range mp {
		if v > 0.5 {
			t.Fatalf("mp[%d]=%v for periodic signal", i, v)
		}
	}
	if got := s.MatrixProfile(100); got != nil {
		t.Fatal("window too large should return nil")
	}
	if got := s.MatrixProfile(1); got != nil {
		t.Fatal("window < 2 should return nil")
	}
}

func TestMotifsFindPlantedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.3
	}
	shape := []float64{0, 2, 4, 6, 4, 2, 0, -2, -4, -2}
	copy(vals[50:], shape)
	copy(vals[200:], shape)
	s := FromSamples("m", 0, 1, vals)
	motifs := s.Motifs(len(shape), 1)
	if len(motifs) != 1 {
		t.Fatalf("motifs=%v", motifs)
	}
	mo := motifs[0]
	near := func(x, want int) bool { return abs(x-want) <= 2 }
	ok := (near(mo.A, 50) && near(mo.B, 200)) || (near(mo.A, 200) && near(mo.B, 50))
	if !ok {
		t.Fatalf("motif pair (%d,%d), want (50,200)", mo.A, mo.B)
	}
	if mo.Dist > 1 {
		t.Fatalf("motif distance %v too large", mo.Dist)
	}
}

func TestMotifsExclusionZone(t *testing.T) {
	// Smooth sine: trivially-overlapping windows must not form the motif pair.
	n := 200
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 30)
	}
	s := FromSamples("sm", 0, 1, vals)
	m := 20
	for _, mo := range s.Motifs(m, 3) {
		if abs(mo.A-mo.B) <= m/2 {
			t.Fatalf("trivial match pair (%d,%d) with m=%d", mo.A, mo.B, m)
		}
	}
}
