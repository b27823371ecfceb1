// The graph-coupled forecaster behind the example's last section — the
// paper's "HyGraph and AI" direction (Section 6): a forecasting model that merges graph structure with
// time-series dynamics, in the spirit of the GC-LSTM / TISER-GCN systems the
// paper cites but in closed form — each TS vertex's next value is regressed
// on its own lags AND the lagged mean of its graph neighbors' series, fit by
// ridge least squares. Forecasts are rolled out jointly over the whole
// instance, so predictions propagate along edges (a graph-coupled VAR).
//
// The testable claim mirrors the paper's thesis: when series are coupled
// through the topology (e.g. a production line where downstream sensors lag
// upstream ones), the hybrid model beats the best isolated-series model.

package main

import (
	"errors"
	"fmt"
	"sort"

	"hygraph/internal/core"
	"hygraph/internal/ts"
)

// Config parameterizes Fit.
type Config struct {
	// OwnLags is the autoregressive order on the vertex's own series.
	OwnLags int
	// NeighborLags is the order on the neighbor-mean signal (0 disables
	// graph coupling, reducing the model to independent ridge AR).
	NeighborLags int
	// Ridge is the L2 regularization strength (> 0 keeps the normal
	// equations well conditioned).
	Ridge float64
	// Bucket aligns all series onto this grid before fitting.
	Bucket ts.Time
	// NeighborHops is how far (in edges, any direction) to search for the
	// TS vertices whose series form the neighbor signal. 1 suits directly
	// linked series; 3 reaches sibling/upstream sensors through
	// sensor–machine–machine–sensor paths.
	NeighborHops int
}

// DefaultConfig is a sensible small model.
func DefaultConfig(bucket ts.Time) Config {
	return Config{OwnLags: 6, NeighborLags: 3, Ridge: 1e-3, Bucket: bucket, NeighborHops: 1}
}

// Model is a fitted graph-coupled AR model.
type Model struct {
	cfg      Config
	vertices []core.VID
	// coef[v] = [a_1..a_p, b_1..b_q, c]
	coef map[core.VID][]float64
	// neighbors of each modeled vertex (modeled TS vertices only)
	nbrs map[core.VID][]core.VID
	// hist[v] = aligned training values (bucket means), oldest first
	hist map[core.VID][]float64
	// lastBucket is the bucket timestamp of the final training point.
	lastBucket ts.Time
}

// ErrTooShort is returned when a series has too few aligned buckets.
var ErrTooShort = errors.New("hybridar: series too short for the chosen lags")

// Fit fits one regression per TS vertex of the instance over the window
// [start, end). Vertices whose series yield fewer than OwnLags+NeighborLags+4
// buckets are skipped.
func Fit(h *core.HyGraph, cfg Config, start, end ts.Time) (*Model, error) {
	if cfg.OwnLags < 1 || cfg.NeighborLags < 0 || cfg.Bucket <= 0 {
		return nil, fmt.Errorf("hybridar: invalid config %+v", cfg)
	}
	m := &Model{
		cfg:  cfg,
		coef: map[core.VID][]float64{},
		nbrs: map[core.VID][]core.VID{},
		hist: map[core.VID][]float64{},
	}
	// Collect aligned histories.
	times := map[core.VID][]ts.Time{}
	h.Vertices(func(v *core.Vertex) bool {
		if v.Kind != core.TS {
			return true
		}
		s, ok := v.SeriesVar("")
		if !ok {
			return true
		}
		r := s.SliceView(start, end).Resample(cfg.Bucket, ts.AggMean)
		if r.Len() < cfg.OwnLags+cfg.NeighborLags+4 {
			return true
		}
		m.hist[v.ID] = r.Values()
		times[v.ID] = r.Times()
		m.vertices = append(m.vertices, v.ID)
		return true
	})
	if len(m.vertices) == 0 {
		return nil, ErrTooShort
	}
	// All modeled series must share the same grid; trim to the shortest
	// common suffix so indexes align.
	minLen := 1 << 60
	for _, v := range m.vertices {
		if l := len(m.hist[v]); l < minLen {
			minLen = l
		}
	}
	for _, v := range m.vertices {
		hv := m.hist[v]
		m.hist[v] = hv[len(hv)-minLen:]
		tv := times[v]
		times[v] = tv[len(tv)-minLen:]
	}
	m.lastBucket = times[m.vertices[0]][minLen-1]
	// Neighbor sets among modeled vertices within NeighborHops edges.
	hops := cfg.NeighborHops
	if hops < 1 {
		hops = 1
	}
	modeled := map[core.VID]bool{}
	for _, v := range m.vertices {
		modeled[v] = true
	}
	for _, v := range m.vertices {
		nb := modeledWithin(h, v, hops, modeled)
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		m.nbrs[v] = nb
	}
	// Fit each vertex.
	for _, v := range m.vertices {
		coef, err := m.fitVertex(v, minLen)
		if err != nil {
			return nil, fmt.Errorf("hybridar: vertex %d: %w", v, err)
		}
		m.coef[v] = coef
	}
	return m, nil
}

// modeledWithin BFS-collects the modeled TS vertices within maxHops of v
// (any edge direction), excluding v itself.
func modeledWithin(h *core.HyGraph, v core.VID, maxHops int, modeled map[core.VID]bool) []core.VID {
	seen := map[core.VID]bool{v: true}
	frontier := []core.VID{v}
	var out []core.VID
	for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
		var next []core.VID
		for _, id := range frontier {
			step := func(n core.VID) {
				if seen[n] {
					return
				}
				seen[n] = true
				if modeled[n] {
					out = append(out, n)
				}
				next = append(next, n)
			}
			for _, e := range h.OutEdges(id) {
				step(e.To)
			}
			for _, e := range h.InEdges(id) {
				step(e.From)
			}
		}
		frontier = next
	}
	return out
}

// neighborMean returns the mean of neighbor histories at index t, or the
// vertex's own value when it has no neighbors (keeps the design matrix
// full rank without special-casing).
func (m *Model) neighborMean(v core.VID, idx int, vals map[core.VID][]float64) float64 {
	nb := m.nbrs[v]
	if len(nb) == 0 {
		return vals[v][idx]
	}
	var s float64
	for _, n := range nb {
		s += vals[n][idx]
	}
	return s / float64(len(nb))
}

// fitVertex solves the ridge normal equations for one vertex.
func (m *Model) fitVertex(v core.VID, n int) ([]float64, error) {
	p, q := m.cfg.OwnLags, m.cfg.NeighborLags
	d := p + q + 1
	maxLag := p
	if q > maxLag {
		maxLag = q
	}
	rows := n - maxLag
	if rows < d {
		return nil, ErrTooShort
	}
	// Normal equations accumulators.
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	feat := make([]float64, d)
	y := m.hist[v]
	for t := maxLag; t < n; t++ {
		for l := 1; l <= p; l++ {
			feat[l-1] = y[t-l]
		}
		for l := 1; l <= q; l++ {
			feat[p+l-1] = m.neighborMean(v, t-l, m.hist)
		}
		feat[d-1] = 1 // intercept
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				xtx[i][j] += feat[i] * feat[j]
			}
			xty[i] += feat[i] * y[t]
		}
	}
	for i := 0; i < d-1; i++ { // no ridge on the intercept
		xtx[i][i] += m.cfg.Ridge * float64(rows)
	}
	coef, ok := solve(xtx, xty)
	if !ok {
		return nil, errors.New("singular normal equations")
	}
	return coef, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (A, b); ok is false when A is singular.
func solve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	// Copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[piv][col]) {
				piv = r
			}
		}
		if abs(m[piv][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m[i][n] / m[i][i]
	}
	return out, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Forecast rolls the whole instance forward `steps` buckets jointly: at each
// step every vertex predicts from its own and its neighbors' values,
// including previously predicted ones — information flows along edges.
func (m *Model) Forecast(steps int) map[core.VID]*ts.Series {
	p, q := m.cfg.OwnLags, m.cfg.NeighborLags
	d := p + q + 1
	work := map[core.VID][]float64{}
	for _, v := range m.vertices {
		work[v] = append([]float64(nil), m.hist[v]...)
	}
	out := map[core.VID]*ts.Series{}
	for _, v := range m.vertices {
		out[v] = ts.New(fmt.Sprintf("forecast_v%d", v))
	}
	t := m.lastBucket
	for s := 0; s < steps; s++ {
		t += m.cfg.Bucket
		next := map[core.VID]float64{}
		for _, v := range m.vertices {
			coef := m.coef[v]
			y := work[v]
			n := len(y)
			var pred float64
			for l := 1; l <= p; l++ {
				pred += coef[l-1] * y[n-l]
			}
			for l := 1; l <= q; l++ {
				pred += coef[p+l-1] * m.neighborMean(v, n-l, work)
			}
			pred += coef[d-1]
			next[v] = pred
		}
		for _, v := range m.vertices {
			work[v] = append(work[v], next[v])
			out[v].MustAppend(t, next[v])
		}
	}
	return out
}

// Vertices returns the modeled vertex ids.
func (m *Model) Vertices() []core.VID { return append([]core.VID(nil), m.vertices...) }

// Neighbors returns the modeled neighbor set of a vertex.
func (m *Model) Neighbors(v core.VID) []core.VID {
	return append([]core.VID(nil), m.nbrs[v]...)
}

// Evaluate fits on [start, split) and scores MAE of `steps`-bucket forecasts
// against [split, end) for both the hybrid model and an isolated baseline
// (same config with NeighborLags = 0), returning per-vertex MAEs. It is the
// experiment backing the "hybrid beats isolated" claim.
func Evaluate(h *core.HyGraph, cfg Config, start, split, end ts.Time) (hybrid, isolated map[core.VID]float64, err error) {
	steps := int((end - split) / cfg.Bucket)
	if steps < 1 {
		return nil, nil, fmt.Errorf("hybridar: evaluation window shorter than one bucket")
	}
	hm, err := Fit(h, cfg, start, split)
	if err != nil {
		return nil, nil, err
	}
	iso := cfg
	iso.NeighborLags = 0
	im, err := Fit(h, iso, start, split)
	if err != nil {
		return nil, nil, err
	}
	actual := map[core.VID]*ts.Series{}
	h.Vertices(func(v *core.Vertex) bool {
		if v.Kind != core.TS {
			return true
		}
		if s, ok := v.SeriesVar(""); ok {
			actual[v.ID] = s.SliceView(split, end).Resample(cfg.Bucket, ts.AggMean)
		}
		return true
	})
	score := func(fc map[core.VID]*ts.Series) map[core.VID]float64 {
		out := map[core.VID]float64{}
		for v, f := range fc {
			if a, ok := actual[v]; ok && a.Len() > 0 {
				out[v] = ts.MAE(f, a)
			}
		}
		return out
	}
	return score(hm.Forecast(steps)), score(im.Forecast(steps)), nil
}
