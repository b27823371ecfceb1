// Package pipeline implements the paper's Figure 4: the HyGraph pipeline
// that solves the credit-card fraud running example. It exposes the three
// baselines side by side —
//
//   - GraphOnly: the Listing-1 structural query (≥3 high-amount transactions
//     to nearby merchants within an hour). Flags fraudsters AND legitimate
//     heavy spenders (false positives).
//   - SeriesOnly: the Listing-2 outlier detection on card balances. Flags
//     fraudsters AND legitimately volatile balances (false positives).
//   - Hybrid: the HyGraph pipeline — ingest, enrich (similarity edges,
//     metric evolution), cluster on hybrid embeddings, then classify
//     clusters and members using both evidence channels. Flags exactly the
//     planted fraudsters on well-formed workloads.
//
// The package is used by cmd/fraudpipe, examples/fraud, the integration
// tests, and the Figure-2/Figure-4 benchmarks.
package pipeline

import (
	"fmt"
	"math"
	"sort"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/embed"
	"hygraph/internal/ml"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// Params tune the detectors.
type Params struct {
	HighAmount  float64 // Listing-1 amount threshold
	MaxDistance float64 // Listing-1 merchant distance threshold
	MinFanOut   int     // Listing-1 distinct merchants within the window
	Window      ts.Time // Listing-1 time window
	AnomalyZ    float64 // Listing-2 rolling z-score threshold
	AnomalyWin  int     // Listing-2 rolling window (points)
	DrainFrac   float64 // hybrid: balance min must fall below frac·mean
	Clusters    int     // hybrid: k for k-means over hybrid embeddings
	Seed        int64
}

// DefaultParams matches the running example's thresholds.
func DefaultParams() Params {
	return Params{
		HighAmount:  1000,
		MaxDistance: 1000,
		MinFanOut:   3,
		Window:      ts.Hour,
		AnomalyZ:    6,
		AnomalyWin:  24,
		DrainFrac:   0.25,
		Clusters:    4,
		Seed:        1,
	}
}

// Report is the pipeline output.
type Report struct {
	GraphOnly  []int // user indexes flagged by the structural query
	SeriesOnly []int // user indexes flagged by balance outliers
	Hybrid     []int // final hybrid verdicts
	// Clusters maps each user index to its hybrid cluster.
	Clusters []int
	// SuspiciousClusters lists cluster ids classified as suspicious.
	SuspiciousClusters []int
	// Metrics scores each detector against planted ground truth.
	GraphMetrics  ml.BinaryMetrics
	SeriesMetrics ml.BinaryMetrics
	HybridMetrics ml.BinaryMetrics
}

// Run executes the full Figure 4 pipeline on a generated fraud workload.
func Run(d *dataset.FraudData, p Params) *Report {
	r := &Report{}
	r.GraphOnly = GraphOnly(d, p)
	r.SeriesOnly = SeriesOnly(d, p)
	r.Hybrid, r.Clusters, r.SuspiciousClusters = Hybrid(d, p)

	truth := make([]int, len(d.Truth))
	for i, c := range d.Truth {
		if c == dataset.Fraudster {
			truth[i] = 1
		}
	}
	toPred := func(flagged []int) []int {
		pred := make([]int, len(d.Truth))
		for _, u := range flagged {
			pred[u] = 1
		}
		return pred
	}
	r.GraphMetrics = ml.Evaluate(toPred(r.GraphOnly), truth)
	r.SeriesMetrics = ml.Evaluate(toPred(r.SeriesOnly), truth)
	r.HybridMetrics = ml.Evaluate(toPred(r.Hybrid), truth)
	return r
}

// GraphOnly runs the Listing-1 structural detector: a user is suspicious
// when their card sends >= MinFanOut transactions above HighAmount to
// distinct merchants within MaxDistance of each other inside one Window.
func GraphOnly(d *dataset.FraudData, p Params) []int {
	var out []int
	for u := range d.Users {
		if graphEvidence(d, u, p) {
			out = append(out, u)
		}
	}
	return out
}

// txEvent is one high-amount transaction of a card.
type txEvent struct {
	t   ts.Time
	loc float64
	m   core.VID
}

func graphEvidence(d *dataset.FraudData, u int, p Params) bool {
	h := d.H
	card := d.Cards[u]
	var events []txEvent
	for _, e := range h.OutEdges(card) {
		if e.Label != "TX_FLOW" || e.Kind != core.TS {
			continue
		}
		s, ok := e.SeriesVar("")
		if !ok {
			continue
		}
		loc, _ := h.Vertex(e.To).Prop("loc").AsFloat()
		for i := 0; i < s.Len(); i++ {
			if s.ValueAt(i) > p.HighAmount {
				events = append(events, txEvent{s.TimeAt(i), loc, e.To})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	// Slide the window; count distinct nearby merchants.
	for i := range events {
		merchants := map[core.VID]bool{events[i].m: true}
		for j := i + 1; j < len(events) && events[j].t <= events[i].t+p.Window; j++ {
			if math.Abs(events[j].loc-events[i].loc) < p.MaxDistance {
				merchants[events[j].m] = true
			}
		}
		if len(merchants) >= p.MinFanOut {
			return true
		}
	}
	return false
}

// SeriesOnly runs the Listing-2 detector: a user is suspicious when their
// card balance shows rolling z-score outliers.
func SeriesOnly(d *dataset.FraudData, p Params) []int {
	var out []int
	for u := range d.Users {
		if seriesEvidence(d, u, p) {
			out = append(out, u)
		}
	}
	return out
}

func seriesEvidence(d *dataset.FraudData, u int, p Params) bool {
	s, ok := d.H.Vertex(d.Cards[u]).SeriesVar("")
	if !ok {
		return false
	}
	return len(s.RollingZAnomalies(p.AnomalyWin, p.AnomalyZ)) > 0
}

// Hybrid runs the Figure-4 HyGraph pipeline:
//
//  1. Enrich: add SIMILAR TS edges between correlated card balances
//     (CorrelationEdges) so related cards share cluster context.
//  2. Embed: FastRP over the instant view (structure) ++ balance features
//     (temporal), standardized — the paper's hybrid embedding (E).
//  3. Cluster: k-means over hybrid embeddings; each cluster becomes a
//     logical subgraph whose members are its users and cards (C2).
//  4. Classify: a cluster is suspicious when a member has BOTH evidence
//     channels (structural fan-out AND balance drain); within suspicious
//     clusters, members are flagged only with both evidences — the
//     cross-checking that clears "User 3" and keeps "User 1" (C1).
func Hybrid(d *dataset.FraudData, p Params) (flagged []int, clusters []int, suspicious []int) {
	h := d.H
	// Stage 1: enrichment. Correlated balances get similarity edges.
	if _, err := h.CorrelationEdges(0.97, ts.Hour, 24); err != nil {
		panic(err)
	}
	// Stage 2: hybrid embeddings over the mid-series view.
	mid := midInstant(d)
	view := h.SnapshotAt(mid)
	structEmb, idx := embed.FastRP(view.Graph, embed.FastRPConfig{
		Dim: 16, Weights: []float64{0.5, 1}, Seed: p.Seed, NormalizeL2: true,
	})
	rows := make([][]float64, len(d.Users))
	series := make([]*ts.Series, len(d.Users))
	for u := range d.Users {
		series[u], _ = h.Vertex(d.Cards[u]).SeriesVar("")
	}
	feat := embed.SeriesFeatures(series)
	embed.StandardizeColumns(feat)
	for u := range d.Users {
		var structural []float64
		if sid, ok := view.VertexOf[d.Cards[u]]; ok {
			structural = structEmb.Row(idx[sid])
		} else {
			structural = make([]float64, 16)
		}
		rows[u] = append(append([]float64(nil), structural...), feat.Row(u)...)
	}
	// Stage 3: cluster and materialize logical subgraphs.
	km := ml.KMeans(rows, p.Clusters, 100, p.Seed)
	clusters = km.Assign
	for range km.Centroids {
		if _, err := h.AddSubgraph(tpg.Always, "Cluster"); err != nil {
			panic(err)
		}
	}
	// Stage 4: temporal classification of clusters and members.
	suspiciousSet := map[int]bool{}
	for u := range d.Users {
		if graphEvidence(d, u, p) && drainEvidence(d, u, p) {
			suspiciousSet[clusters[u]] = true
		}
	}
	for cl := range suspiciousSet {
		suspicious = append(suspicious, cl)
	}
	sort.Ints(suspicious)
	for u := range d.Users {
		if suspiciousSet[clusters[u]] && graphEvidence(d, u, p) && drainEvidence(d, u, p) {
			flagged = append(flagged, u)
		}
	}
	return flagged, clusters, suspicious
}

// drainEvidence checks the hybrid balance criterion: the balance floor falls
// below DrainFrac of its mean (a drain, not mere volatility) AND the drain
// is an anomaly against the local history.
func drainEvidence(d *dataset.FraudData, u int, p Params) bool {
	s, ok := d.H.Vertex(d.Cards[u]).SeriesVar("")
	if !ok {
		return false
	}
	return s.Min() < p.DrainFrac*s.Mean() && len(s.RollingZAnomalies(p.AnomalyWin, p.AnomalyZ)) > 0
}

func midInstant(d *dataset.FraudData) ts.Time {
	return ts.Time(d.Config.Hours/2) * ts.Hour
}

// FormatReport renders the three detectors' verdicts and scores.
func FormatReport(d *dataset.FraudData, r *Report) string {
	name := func(us []int) []string {
		out := make([]string, len(us))
		for i, u := range us {
			out[i] = fmt.Sprintf("user-%03d(%s)", u, d.Truth[u])
		}
		return out
	}
	s := ""
	s += fmt.Sprintf("graph-only  flags %v\n  precision=%.2f recall=%.2f F1=%.2f\n",
		name(r.GraphOnly), r.GraphMetrics.Precision(), r.GraphMetrics.Recall(), r.GraphMetrics.F1())
	s += fmt.Sprintf("series-only flags %v\n  precision=%.2f recall=%.2f F1=%.2f\n",
		name(r.SeriesOnly), r.SeriesMetrics.Precision(), r.SeriesMetrics.Recall(), r.SeriesMetrics.F1())
	s += fmt.Sprintf("hybrid      flags %v\n  precision=%.2f recall=%.2f F1=%.2f\n",
		name(r.Hybrid), r.HybridMetrics.Precision(), r.HybridMetrics.Recall(), r.HybridMetrics.F1())
	s += fmt.Sprintf("suspicious clusters: %v of %d\n", r.SuspiciousClusters, max0(r.Clusters))
	return s
}

func max0(assign []int) int {
	m := 0
	for _, a := range assign {
		if a+1 > m {
			m = a + 1
		}
	}
	return m
}
