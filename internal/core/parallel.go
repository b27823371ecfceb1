package core

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// CorrelationEdges computes pairwise correlations between the (first
// variables of the) series of all TS vertices and materializes a TS edge
// labeled "SIMILAR" for every pair with |r| >= threshold. The edge's series
// is the rolling windowed correlation over time (the paper's time-varying
// similarity between credit cards). Returns the number of edges added.
//
// The O(n²) pairwise correlation fans out over GOMAXPROCS worker goroutines
// — the scalability lever of requirement R4 for the most expensive hybrid
// operator. Workers only read; edges are materialized serially afterwards in
// sorted (i, j) order, so the result does not depend on the worker count.
func (h *HyGraph) CorrelationEdges(threshold float64, bucket ts.Time, window int) (int, error) {
	workers := runtime.GOMAXPROCS(0)
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
	n := len(tsv)
	type hit struct {
		i, j int
		r    float64
		sim  *ts.Series
	}
	var mu sync.Mutex
	var hits []hit
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []hit
			for i := range rows {
				for j := i + 1; j < n; j++ {
					r := ts.Correlation(tsv[i].s, tsv[j].s, bucket)
					if math.IsNaN(r) || math.Abs(r) < threshold {
						continue
					}
					sim := rollingCorrelation(tsv[i].s, tsv[j].s, bucket, window)
					if sim.Empty() {
						// Degenerate windows: fall back to a single global point.
						sim.MustAppend(tsv[i].s.End(), r)
					}
					local = append(local, hit{i, j, r, sim})
				}
			}
			mu.Lock()
			hits = append(hits, local...)
			mu.Unlock()
		}()
	}
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
	// Deterministic edge creation order regardless of scheduling.
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].i != hits[b].i {
			return hits[a].i < hits[b].i
		}
		return hits[a].j < hits[b].j
	})
	added := 0
	for _, ht := range hits {
		eid, err := h.AddTSEdgeUni(tsv[ht.i].id, tsv[ht.j].id, "SIMILAR", ht.sim)
		if err != nil {
			return added, err
		}
		h.SetEdgeProp(eid, "r", lpg.Float(ht.r))
		added++
	}
	return added, nil
}
