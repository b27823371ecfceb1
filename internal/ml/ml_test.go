package ml

import (
	"math"
	"math/rand"
	"testing"
)

// blobs generates k Gaussian blobs of size per, spaced far apart, returning
// rows and true labels.
func blobs(k, per int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var rows [][]float64
	var labels []int
	for c := 0; c < k; c++ {
		cx, cy := float64(c*20), float64(c*-10)
		for i := 0; i < per; i++ {
			rows = append(rows, []float64{cx + rng.NormFloat64(), cy + rng.NormFloat64()})
			labels = append(labels, c)
		}
	}
	return rows, labels
}

// adjustedRandIndex scores a clustering against ground-truth classes; 1 is
// perfect agreement, ~0 is random. It is the oracle TestKMeansRecoverBlobs
// scores KMeans with.
func adjustedRandIndex(assign, truth []int) float64 {
	n := len(assign)
	if n < 2 {
		return 0
	}
	cont := map[[2]int]int{}
	aCount := map[int]int{}
	bCount := map[int]int{}
	for i := 0; i < n; i++ {
		cont[[2]int{assign[i], truth[i]}]++
		aCount[assign[i]]++
		bCount[truth[i]]++
	}
	// Pair counts are integers, so these sums are exact in any map order.
	choose2 := func(x int) int { return x * (x - 1) / 2 }
	var sumC, sumA, sumB int
	for _, c := range cont {
		sumC += choose2(c)
	}
	for _, c := range aCount {
		sumA += choose2(c)
	}
	for _, c := range bCount {
		sumB += choose2(c)
	}
	expected := float64(sumA) * float64(sumB) / float64(choose2(n))
	maxIdx := float64(sumA+sumB) / 2
	if maxIdx == expected {
		return 0
	}
	return (float64(sumC) - expected) / (maxIdx - expected)
}

func TestKMeansRecoverBlobs(t *testing.T) {
	rows, truth := blobs(3, 30, 1)
	res := KMeans(rows, 3, 100, 1)
	if ari := adjustedRandIndex(res.Assign, truth); ari < 0.95 {
		t.Fatalf("ARI=%v", ari)
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia=%v", res.Inertia)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids=%d", len(res.Centroids))
	}
}

func TestKMeansDegenerate(t *testing.T) {
	if res := KMeans(nil, 3, 10, 1); res.Assign != nil {
		t.Fatal("empty input")
	}
	rows := [][]float64{{1, 1}, {2, 2}}
	res := KMeans(rows, 5, 10, 1) // k > n clamps
	if len(res.Centroids) != 2 {
		t.Fatalf("clamped k=%d", len(res.Centroids))
	}
	// Identical points.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}}
	res = KMeans(same, 2, 10, 1)
	if res.Inertia != 0 {
		t.Fatalf("identical points inertia=%v", res.Inertia)
	}
}

func TestBinaryMetrics(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1}
	truth := []int{1, 0, 0, 1, 1}
	m := Evaluate(pred, truth)
	if m.TP != 2 || m.FP != 1 || m.TN != 1 || m.FN != 1 {
		t.Fatalf("%+v", m)
	}
	if math.Abs(m.Precision()-2.0/3) > 1e-12 {
		t.Fatalf("precision=%v", m.Precision())
	}
	if math.Abs(m.Recall()-2.0/3) > 1e-12 {
		t.Fatalf("recall=%v", m.Recall())
	}
	if math.Abs(m.F1()-2.0/3) > 1e-12 {
		t.Fatalf("f1=%v", m.F1())
	}
	if math.Abs(m.Accuracy()-0.6) > 1e-12 {
		t.Fatalf("accuracy=%v", m.Accuracy())
	}
	var zero BinaryMetrics
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 || zero.Accuracy() != 0 {
		t.Fatal("zero metrics must not NaN")
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 1}
	if ari := adjustedRandIndex(truth, truth); math.Abs(ari-1) > 1e-12 {
		t.Fatalf("perfect ARI=%v", ari)
	}
	// Permuted labels still perfect.
	perm := []int{5, 5, 5, 9, 9, 9}
	if ari := adjustedRandIndex(perm, truth); math.Abs(ari-1) > 1e-12 {
		t.Fatalf("permuted ARI=%v", ari)
	}
	// All-in-one vs split is 0 (max == expected edge case handled).
	one := []int{0, 0, 0, 0, 0, 0}
	if ari := adjustedRandIndex(one, truth); math.Abs(ari) > 1e-9 {
		t.Fatalf("degenerate ARI=%v", ari)
	}
}

func TestEuclidean(t *testing.T) {
	if d := Euclidean([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Fatalf("d=%v", d)
	}
}
