package pipeline

import (
	"strings"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
)

func run(t *testing.T, seed int64) (*dataset.FraudData, *Report) {
	t.Helper()
	cfg := dataset.DefaultFraud()
	cfg.Seed = seed
	d := dataset.GenerateFraud(cfg)
	return d, Run(d, DefaultParams())
}

func asSet(us []int) map[int]bool {
	m := map[int]bool{}
	for _, u := range us {
		m[u] = true
	}
	return m
}

// TestGraphOnlyFlagsBait reproduces Figure 2's "graph way": the structural
// query flags every fraudster but also the heavy users.
func TestGraphOnlyFlagsBait(t *testing.T) {
	d, r := run(t, 1)
	got := asSet(r.GraphOnly)
	for _, u := range d.TruePositives() {
		if !got[u] {
			t.Fatalf("graph-only missed fraudster %d", u)
		}
	}
	baited := 0
	for _, u := range d.FalsePositiveBait() {
		if got[u] {
			baited++
		}
	}
	if baited == 0 {
		t.Fatal("graph-only flagged no heavy user: the false-positive story needs bait")
	}
}

// TestSeriesOnlyFlagsVolatile reproduces Figure 2's "time-series way".
func TestSeriesOnlyFlagsVolatile(t *testing.T) {
	d, r := run(t, 1)
	got := asSet(r.SeriesOnly)
	for _, u := range d.TruePositives() {
		if !got[u] {
			t.Fatalf("series-only missed fraudster %d", u)
		}
	}
	baited := 0
	for _, u := range d.VolatileBait() {
		if got[u] {
			baited++
		}
	}
	if baited == 0 {
		t.Fatal("series-only flagged no volatile user")
	}
}

// TestHybridExact reproduces Figure 4's claim: the pipeline flags exactly
// the planted fraudsters — "User 3" (heavy) exonerated, "User 1" confirmed.
func TestHybridExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d, r := run(t, seed)
		got := asSet(r.Hybrid)
		want := asSet(d.TruePositives())
		for u := range want {
			if !got[u] {
				t.Fatalf("seed %d: hybrid missed fraudster %d", seed, u)
			}
		}
		for u := range got {
			if !want[u] {
				t.Fatalf("seed %d: hybrid false positive %d (%s)", seed, u, d.Truth[u])
			}
		}
		if r.HybridMetrics.F1() != 1 {
			t.Fatalf("seed %d: hybrid F1=%v", seed, r.HybridMetrics.F1())
		}
	}
}

// TestHybridBeatsBaselines: the quantitative Figure-4 claim.
func TestHybridBeatsBaselines(t *testing.T) {
	_, r := run(t, 2)
	if r.HybridMetrics.F1() <= r.GraphMetrics.F1() {
		t.Fatalf("hybrid F1 %v <= graph-only %v", r.HybridMetrics.F1(), r.GraphMetrics.F1())
	}
	if r.HybridMetrics.F1() <= r.SeriesMetrics.F1() {
		t.Fatalf("hybrid F1 %v <= series-only %v", r.HybridMetrics.F1(), r.SeriesMetrics.F1())
	}
	// Recall must not be sacrificed for precision.
	if r.HybridMetrics.Recall() < 1 {
		t.Fatalf("hybrid recall=%v", r.HybridMetrics.Recall())
	}
}

func TestClustersAndSubgraphs(t *testing.T) {
	d, r := run(t, 1)
	if len(r.Clusters) != len(d.Users) {
		t.Fatalf("cluster assignment len=%d", len(r.Clusters))
	}
	if len(r.SuspiciousClusters) == 0 {
		t.Fatal("no suspicious clusters")
	}
	// The pipeline materialized one logical subgraph per cluster on the
	// instance; subgraph ids are dense from 0.
	subgraphs := 0
	for d.H.Subgraph(core.SID(subgraphs)) != nil {
		subgraphs++
	}
	if subgraphs < DefaultParams().Clusters {
		t.Fatalf("subgraphs=%d", subgraphs)
	}
}

func TestFormatReport(t *testing.T) {
	d, r := run(t, 1)
	out := FormatReport(d, r)
	for _, want := range []string{"graph-only", "series-only", "hybrid", "precision", "suspicious clusters"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
