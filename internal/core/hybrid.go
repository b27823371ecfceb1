package core

import (
	"fmt"
	"math"
	"sort"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// This file implements the HyGraphToHyGraph interface: the hybrid operators
// of Table 2, each combining one time-series primitive with one graph
// primitive.

// ---------------------------------------------------------------------------
// Q1: hybrid pattern matching (subsequence matching ⊗ subgraph matching)

// SeriesWhere adapts a predicate over a TS element's series into an LPG
// vertex predicate usable in lpg.Pattern against a SnapshotAt view. PG
// vertices never satisfy it.
func SeriesWhere(pred func(*ts.MultiSeries) bool) func(*lpg.Vertex) bool {
	return func(v *lpg.Vertex) bool {
		m, ok := v.Prop(SeriesPropKey).AsMulti()
		return ok && pred(m)
	}
}

// SubsequencePred builds a series predicate that holds when the series'
// named variable contains a window within dist (z-normalized Euclidean) of
// the query shape — the time-series half of hybrid pattern matching.
func SubsequencePred(variable string, query *ts.Series, maxDist float64) func(*ts.MultiSeries) bool {
	return func(m *ts.MultiSeries) bool {
		s, ok := seriesVar(m, variable)
		if !ok {
			return false
		}
		ms := ts.SubsequenceMatches(s, query, 1)
		return len(ms) > 0 && ms[0].Dist <= maxDist
	}
}

// HybridMatch is the paper's Q1 operator: match a structural pattern
// against the instant-t view, where pattern predicates may inspect the time
// series of TS elements (via SeriesWhere / SubsequencePred). It returns the
// bindings translated back to HyGraph vertex ids.
func (h *HyGraph) HybridMatch(t ts.Time, p *lpg.Pattern, limit int) []map[string]VID {
	view := h.SnapshotAt(t)
	ms := view.Graph.MatchPattern(p, limit)
	out := make([]map[string]VID, len(ms))
	for i, m := range ms {
		b := make(map[string]VID, len(m.Vertices))
		for name, sid := range m.Vertices {
			b[name] = view.HyV[sid]
		}
		out[i] = b
	}
	return out
}

// ---------------------------------------------------------------------------
// Q2: hybrid aggregation (downsampling ⊗ graph aggregation)

// AggregateSpec configures HybridAggregate.
type AggregateSpec struct {
	// GroupKey maps each PG vertex to its group; empty-string keys group too.
	GroupKey func(*Vertex) string
	// Bucket is the downsampling bucket width applied to member series.
	Bucket ts.Time
	// SeriesAgg aggregates within a downsampling bucket (default mean).
	SeriesAgg ts.AggFunc
	// Combine merges the downsampled member series point-wise (default sum).
	Combine ts.AggFunc
}

// HybridAggregate is the paper's Q2 operator: group PG vertices into
// super-vertices and merge + downsample the series of TS vertices attached
// to each group's members into one series per group, attached as a TS
// super-vertex. The result is a new, smaller HyGraph — summarizing
// high-frequency data "without losing context".
func (h *HyGraph) HybridAggregate(spec AggregateSpec) (*HyGraph, map[string]VID, error) {
	if spec.GroupKey == nil {
		return nil, nil, fmt.Errorf("core: HybridAggregate requires GroupKey")
	}
	if spec.Bucket <= 0 {
		return nil, nil, fmt.Errorf("core: HybridAggregate requires positive Bucket")
	}
	out := New()
	superOf := map[string]VID{}
	groupOf := map[VID]string{}
	memberSeries := map[string][]*ts.Series{}
	memberCount := map[string]int{}

	h.Vertices(func(v *Vertex) bool {
		if v.Kind != PG {
			return true
		}
		key := spec.GroupKey(v)
		if _, ok := superOf[key]; !ok {
			id, err := out.AddVertex(v.Valid, "_group")
			if err != nil {
				return true
			}
			out.SetVertexProp(id, "key", lpg.Str(key))
			superOf[key] = id
		}
		groupOf[v.ID] = key
		memberCount[key]++
		return true
	})
	// Series owned by a group: TS vertices reachable over one edge from a
	// member PG vertex (either direction).
	h.Edges(func(e *Edge) bool {
		var pgEnd, tsEnd VID = -1, -1
		vf, vt := h.Vertex(e.From), h.Vertex(e.To)
		switch {
		case vf.Kind == PG && vt.Kind == TS:
			pgEnd, tsEnd = e.From, e.To
		case vf.Kind == TS && vt.Kind == PG:
			pgEnd, tsEnd = e.To, e.From
		default:
			return true
		}
		key, ok := groupOf[pgEnd]
		if !ok {
			return true
		}
		if s, got := h.Vertex(tsEnd).SeriesVar(""); got {
			memberSeries[key] = append(memberSeries[key], s)
		}
		return true
	})
	seriesAgg := spec.SeriesAgg
	combine := spec.Combine
	keys := make([]string, 0, len(superOf))
	for k := range superOf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sv := superOf[key]
		out.SetVertexProp(sv, "count", lpg.Int(int64(memberCount[key])))
		members := memberSeries[key]
		if len(members) == 0 {
			continue
		}
		merged := mergeSeries(key, members, spec.Bucket, seriesAgg, combine)
		tsv, err := out.AddTSVertexUni(merged, "_group_series")
		if err != nil {
			return nil, nil, err
		}
		if _, err := out.AddEdge(sv, tsv, "HAS_SERIES", tpg.Always); err != nil {
			return nil, nil, err
		}
	}
	return out, superOf, nil
}

// mergeSeries downsamples each member onto the shared bucket grid and folds
// the aligned buckets with combine.
func mergeSeries(name string, members []*ts.Series, bucket ts.Time, within, combine ts.AggFunc) *ts.Series {
	perBucket := map[ts.Time][]float64{}
	for _, m := range members {
		for _, p := range m.Resample(bucket, within).Points() {
			perBucket[p.T] = append(perBucket[p.T], p.V)
		}
	}
	times := make([]ts.Time, 0, len(perBucket))
	for t := range perBucket {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := ts.New(name)
	for _, t := range times {
		out.MustAppend(t, combine.Apply(perBucket[t]))
	}
	return out
}

// ---------------------------------------------------------------------------
// Q3: correlation ⊗ reachability

// CorrelationEdges computes pairwise correlations between the (first
// variables of the) series of all TS vertices and materializes a TS edge
// labeled "SIMILAR" for every pair with |r| >= threshold. The edge's series
// is the rolling windowed correlation over time (the paper's time-varying
// similarity between credit cards). Returns the number of edges added.
func (h *HyGraph) CorrelationEdges(threshold float64, bucket ts.Time, window int) (int, error) {
	type entry struct {
		id VID
		s  *ts.Series
	}
	var tsv []entry
	h.Vertices(func(v *Vertex) bool {
		if v.Kind == TS {
			if s, ok := v.SeriesVar(""); ok {
				tsv = append(tsv, entry{v.ID, s})
			}
		}
		return true
	})
	added := 0
	for i := 0; i < len(tsv); i++ {
		for j := i + 1; j < len(tsv); j++ {
			r := ts.Correlation(tsv[i].s, tsv[j].s, bucket)
			if math.IsNaN(r) || math.Abs(r) < threshold {
				continue
			}
			sim := rollingCorrelation(tsv[i].s, tsv[j].s, bucket, window)
			if sim.Empty() {
				// Degenerate windows: fall back to a single global point.
				sim.MustAppend(tsv[i].s.End(), r)
			}
			eid, err := h.AddTSEdgeUni(tsv[i].id, tsv[j].id, "SIMILAR", sim)
			if err != nil {
				return added, err
			}
			h.SetEdgeProp(eid, "r", lpg.Float(r))
			added++
		}
	}
	return added, nil
}

// rollingCorrelation computes Pearson correlation over a sliding window of
// aligned buckets, stamped at each window's end bucket.
func rollingCorrelation(a, b *ts.Series, bucket ts.Time, window int) *ts.Series {
	av, bv, buckets := ts.Align(a, b, bucket, ts.AggMean)
	out := ts.New("corr")
	if window < 2 || len(buckets) < window {
		return out
	}
	for i := window; i <= len(buckets); i++ {
		r := ts.Pearson(av[i-window:i], bv[i-window:i])
		if math.IsNaN(r) {
			continue
		}
		out.Upsert(buckets[i-1], r)
	}
	return out
}

// CorrelatedReachable is the paper's Q3 operator: reachability where an
// edge may only be traversed when the series of its endpoints (for TS
// endpoints) correlate at least minR over the shared bucket grid, enhancing
// reachability with temporal-similarity evidence.
func (h *HyGraph) CorrelatedReachable(from, to VID, minR float64, bucket ts.Time, maxHops int) bool {
	if h.Vertex(from) == nil || h.Vertex(to) == nil {
		return false
	}
	usable := func(e *Edge) bool {
		vf, vt := h.Vertex(e.From), h.Vertex(e.To)
		if vf.Kind != TS || vt.Kind != TS {
			return true // constraint applies to series-bearing endpoints only
		}
		sa, okA := vf.SeriesVar("")
		sb, okB := vt.SeriesVar("")
		if !okA || !okB {
			return false
		}
		r := ts.Correlation(sa, sb, bucket)
		return !math.IsNaN(r) && math.Abs(r) >= minR
	}
	seen := map[VID]bool{from: true}
	frontier := []VID{from}
	for hops := 0; len(frontier) > 0 && (maxHops < 0 || hops < maxHops); hops++ {
		var next []VID
		for _, id := range frontier {
			for _, e := range h.OutEdges(id) {
				if !seen[e.To] && usable(e) {
					if e.To == to {
						return true
					}
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
			for _, e := range h.InEdges(id) {
				if !seen[e.From] && usable(e) {
					if e.From == to {
						return true
					}
					seen[e.From] = true
					next = append(next, e.From)
				}
			}
		}
		frontier = next
	}
	return from == to
}

// ---------------------------------------------------------------------------
// Q4: segmentation ⊗ snapshot

// SegmentSnapshot pairs one detected regime of the driver series with the
// graph state at the regime's start.
type SegmentSnapshot struct {
	Segment ts.Segment
	View    *View
}

// SegmentSnapshots is the paper's Q4 operator: segment the driver series
// into at most maxSegments regimes and snapshot the instance at each
// regime's start — "graph snapshots at significant time intervals identified
// through time series segmentation".
func (h *HyGraph) SegmentSnapshots(driver *ts.Series, maxSegments int, minGain float64) []SegmentSnapshot {
	segs := driver.Segmentize(maxSegments, minGain)
	out := make([]SegmentSnapshot, 0, len(segs))
	for _, sg := range segs {
		out = append(out, SegmentSnapshot{Segment: sg, View: h.SnapshotAt(sg.Start)})
	}
	return out
}

// ActivitySeries samples the number of simultaneously valid edges — a
// natural driver series for SegmentSnapshots.
func (h *HyGraph) ActivitySeries(start, end, step ts.Time) *ts.Series {
	s := ts.New("active_edges")
	if step <= 0 {
		return s
	}
	for t := start; t < end; t += step {
		n := 0
		h.Edges(func(e *Edge) bool {
			if e.EffectiveValid().Contains(t) {
				n++
			}
			return true
		})
		s.MustAppend(t, float64(n))
	}
	return s
}

// ---------------------------------------------------------------------------
// D: anomalies ⊗ communities

// CommunityAnomaly scores one community by its members' time-series
// anomalies.
type CommunityAnomaly struct {
	Community int
	Members   []VID
	// Score is the mean of members' max |z|-style anomaly scores; 0 when no
	// member has a series.
	Score float64
	// Anomalous members and their individual scores.
	MemberScore map[VID]float64
}

// AnomalyCommunities is the paper's D operator: detect communities on the
// instant-t view, score each member's series with a rolling z-score
// detector, and aggregate per community — enriching anomaly detection with
// community context. Communities are returned sorted by descending score.
func (h *HyGraph) AnomalyCommunities(t ts.Time, window int, zThreshold float64, seed int64) []CommunityAnomaly {
	view := h.SnapshotAt(t)
	comms := view.Graph.LabelPropagation(50, seed)
	byComm := map[int][]VID{}
	for sid, cm := range comms.Of {
		byComm[cm] = append(byComm[cm], view.HyV[sid])
	}
	out := make([]CommunityAnomaly, 0, len(byComm))
	for cm, members := range byComm {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		ca := CommunityAnomaly{Community: cm, Members: members, MemberScore: map[VID]float64{}}
		var scores []float64
		for _, m := range members {
			v := h.Vertex(m)
			if v.Kind != TS {
				continue
			}
			s, ok := v.SeriesVar("")
			if !ok {
				continue
			}
			best := 0.0
			for _, a := range s.RollingZAnomalies(window, zThreshold) {
				if a.Score > best {
					best = a.Score
				}
			}
			ca.MemberScore[m] = best
			scores = append(scores, best)
		}
		if len(scores) > 0 {
			var sum float64
			for _, s := range scores {
				sum += s
			}
			ca.Score = sum / float64(len(scores))
		}
		out = append(out, ca)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Community < out[j].Community
	})
	return out
}

// ---------------------------------------------------------------------------
// PM: motif mining (sequence motifs ⊗ graph motifs)

// MotifGroup is a set of TS vertices whose series share a symbolic shape
// (SAX word), together with the induced edge count among them — recurring
// sub-structures with common temporal behaviour.
type MotifGroup struct {
	Word         string
	Members      []VID
	InducedEdges int
}

// MotifPatterns is the paper's PM operator: compute SAX words for every TS
// vertex's series, group vertices by word, and report groups with at least
// minSize members plus how densely they are interconnected. Groups are
// ordered by descending size then word.
func (h *HyGraph) MotifPatterns(segments, alphabet, minSize int) []MotifGroup {
	byWord := map[string][]VID{}
	h.Vertices(func(v *Vertex) bool {
		if v.Kind != TS {
			return true
		}
		s, ok := v.SeriesVar("")
		if !ok || s.Len() < segments {
			return true
		}
		w, err := s.SAX(segments, alphabet)
		if err != nil {
			return true
		}
		byWord[w] = append(byWord[w], v.ID)
		return true
	})
	var out []MotifGroup
	for w, members := range byWord {
		if len(members) < minSize {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		set := map[VID]bool{}
		for _, m := range members {
			set[m] = true
		}
		induced := 0
		h.Edges(func(e *Edge) bool {
			if set[e.From] && set[e.To] {
				induced++
			}
			return true
		})
		out = append(out, MotifGroup{Word: w, Members: members, InducedEdges: induced})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Members) != len(out[j].Members) {
			return len(out[i].Members) > len(out[j].Members)
		}
		return out[i].Word < out[j].Word
	})
	return out
}
