package main

import (
	"math"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// coupledPair builds two TS vertices where b strictly follows a with lag 1:
// b[t] = a[t-1]. A hybrid model must predict b almost perfectly; an isolated
// AR cannot (a is an unpredictable random walk).
func coupledPair(t *testing.T) (*core.HyGraph, core.VID, core.VID) {
	t.Helper()
	h := core.New()
	// a: deterministic pseudo-random walk (seeded LCG so no test flakiness).
	n := 400
	state := uint64(42)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(int64(state>>33)%1000)/100 - 5
	}
	av := make([]float64, n)
	for i := range av {
		step := next()
		if i == 0 {
			av[i] = step
		} else {
			av[i] = av[i-1] + step
		}
	}
	sa := ts.New("a")
	sb := ts.New("b")
	for i := 0; i < n; i++ {
		sa.MustAppend(ts.Time(i)*ts.Hour, av[i])
		if i >= 1 {
			sb.MustAppend(ts.Time(i)*ts.Hour, av[i-1])
		} else {
			sb.MustAppend(0, 0)
		}
	}
	a, err := h.AddTSVertexUni(sa, "S")
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AddTSVertexUni(sb, "S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddEdge(a, b, "FEEDS", tpg.Always); err != nil {
		t.Fatal(err)
	}
	return h, a, b
}

func TestFitAndNeighborDiscovery(t *testing.T) {
	h, a, b := coupledPair(t)
	m, err := Fit(h, DefaultConfig(ts.Hour), 0, 400*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vertices()) != 2 {
		t.Fatalf("modeled=%v", m.Vertices())
	}
	if nb := m.Neighbors(b); len(nb) != 1 || nb[0] != a {
		t.Fatalf("neighbors of b=%v", nb)
	}
}

func TestForecastShape(t *testing.T) {
	h, a, _ := coupledPair(t)
	m, err := Fit(h, DefaultConfig(ts.Hour), 0, 400*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(12)
	if len(fc) != 2 {
		t.Fatalf("forecasts=%d", len(fc))
	}
	fa := fc[a]
	if fa.Len() != 12 {
		t.Fatalf("steps=%d", fa.Len())
	}
	// Timestamps continue on the bucket grid.
	if fa.TimeAt(0) != 400*ts.Hour {
		t.Fatalf("first forecast at %v", fa.TimeAt(0))
	}
	for _, p := range fa.Points() {
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			t.Fatalf("non-finite forecast %v", p)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	h, _, _ := coupledPair(t)
	if _, err := Fit(h, Config{OwnLags: 0, Bucket: ts.Hour}, 0, 400*ts.Hour); err == nil {
		t.Fatal("OwnLags=0 accepted")
	}
	if _, err := Fit(h, Config{OwnLags: 2, NeighborLags: -1, Bucket: ts.Hour}, 0, 400*ts.Hour); err == nil {
		t.Fatal("negative NeighborLags accepted")
	}
	if _, err := Fit(h, Config{OwnLags: 2, Bucket: 0}, 0, 400*ts.Hour); err == nil {
		t.Fatal("zero bucket accepted")
	}
	// Too-short window.
	if _, err := Fit(h, DefaultConfig(ts.Hour), 0, 3*ts.Hour); err != ErrTooShort {
		t.Fatalf("short window: %v", err)
	}
}

// TestHybridBeatsIsolatedOnCoupledPair: b = lagged a exactly, so at one-step
// horizon the hybrid model is near-perfect on b (it reads a's last value
// through the edge) while the isolated AR must guess the next random-walk
// step. Rolling-origin evaluation averages 20 one-step forecasts.
func TestHybridBeatsIsolatedOnCoupledPair(t *testing.T) {
	h, _, b := coupledPair(t)
	cfg := DefaultConfig(ts.Hour)
	var hySum, isoSum float64
	n := 0
	for origin := 340; origin < 360; origin++ {
		split := ts.Time(origin) * ts.Hour
		hy, iso, err := Evaluate(h, cfg, 0, split, split+ts.Hour)
		if err != nil {
			t.Fatal(err)
		}
		hySum += hy[b]
		isoSum += iso[b]
		n++
	}
	hyMAE, isoMAE := hySum/float64(n), isoSum/float64(n)
	if hyMAE >= isoMAE {
		t.Fatalf("1-step hybrid MAE %v >= isolated %v on the coupled vertex", hyMAE, isoMAE)
	}
	if hyMAE > 0.5*isoMAE {
		t.Fatalf("hybrid advantage too small: %v vs %v (b is an exact lagged copy)", hyMAE, isoMAE)
	}
}

// TestHybridBeatsIsolatedOnIoT: the roadmap experiment — on a coupled
// production line, graph-aware forecasting beats per-series AR on average.
func TestHybridBeatsIsolatedOnIoT(t *testing.T) {
	cfg := dataset.DefaultIoT()
	cfg.Hours = 24 * 21
	cfg.FaultyMachines = 0 // forecasting experiment, no planted faults
	cfg.Coupling = 0.9
	cfg.CouplingLag = 1
	d := dataset.GenerateIoT(cfg)

	mcfg := DefaultConfig(ts.Hour)
	mcfg.NeighborHops = 3 // sensor → machine → machine → sensor
	split := ts.Time(cfg.Hours-12) * ts.Hour
	end := ts.Time(cfg.Hours) * ts.Hour
	hy, iso, err := Evaluate(d.H, mcfg, 0, split, end)
	if err != nil {
		t.Fatal(err)
	}
	var hySum, isoSum float64
	var n int
	wins := 0
	for v, hv := range hy {
		iv, ok := iso[v]
		if !ok {
			continue
		}
		hySum += hv
		isoSum += iv
		if hv < iv {
			wins++
		}
		n++
	}
	if n == 0 {
		t.Fatal("no evaluated vertices")
	}
	if hySum >= isoSum {
		t.Fatalf("mean hybrid MAE %.3f >= isolated %.3f over %d sensors",
			hySum/float64(n), isoSum/float64(n), n)
	}
	if wins*2 < n {
		t.Fatalf("hybrid wins only %d/%d sensors", wins, n)
	}
}

func TestSolve(t *testing.T) {
	// 2x + y = 5; x - y = 1 → x=2, y=1.
	x, ok := solve([][]float64{{2, 1}, {1, -1}}, []float64{5, 1})
	if !ok || math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Fatalf("solve=%v ok=%v", x, ok)
	}
	// Singular.
	if _, ok := solve([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); ok {
		t.Fatal("singular solved")
	}
}

// BenchmarkRoadmap_AI_GraphCoupledForecast is Section 6, "HyGraph and AI" —
// graph-coupled forecasting (the GC-LSTM idea in closed form). It reports
// the hybrid and isolated mean MAEs as custom metrics so the "hybrid wins"
// shape is visible in bench output.
func BenchmarkRoadmap_AI_GraphCoupledForecast(b *testing.B) {
	cfg := dataset.DefaultIoT()
	cfg.Hours = 24 * 14
	cfg.FaultyMachines = 0
	cfg.Coupling = 0.9
	cfg.CouplingLag = 1
	d := dataset.GenerateIoT(cfg)
	mcfg := DefaultConfig(ts.Hour)
	mcfg.NeighborHops = 3
	split := ts.Time(cfg.Hours-12) * ts.Hour
	end := ts.Time(cfg.Hours) * ts.Hour
	var hyMean, isoMean float64
	for i := 0; i < b.N; i++ {
		hy, iso, err := Evaluate(d.H, mcfg, 0, split, end)
		if err != nil {
			b.Fatal(err)
		}
		hyMean, isoMean = 0, 0
		for v, m := range hy {
			hyMean += m
			isoMean += iso[v]
		}
		n := float64(len(hy))
		hyMean /= n
		isoMean /= n
	}
	b.ReportMetric(hyMean, "hybridMAE")
	b.ReportMetric(isoMean, "isolatedMAE")
}
