// Package embed implements the embedding methods the paper's roadmap names
// for HyGraph-and-AI (Table 2, row E) that the Figure-4 fraud pipeline
// (internal/pipeline) builds its hybrid embeddings from: FastRP-style
// structural embeddings via very sparse random projections over adjacency
// powers, and standardized time-series feature matrices.
package embed

import (
	"math"
	"math/rand"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// Matrix is a dense row-major matrix: one row per item.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// FastRPConfig configures FastRP.
type FastRPConfig struct {
	Dim         int       // embedding dimension
	Weights     []float64 // weight per adjacency power (len = #iterations)
	Seed        int64
	NormalizeL2 bool // L2-normalize the final rows
}

// DefaultFastRP is a reasonable small-graph configuration.
func DefaultFastRP() FastRPConfig {
	return FastRPConfig{Dim: 32, Weights: []float64{0.1, 0.5, 1.0}, Seed: 1, NormalizeL2: true}
}

// FastRP computes structural embeddings for every live vertex: a very
// sparse random projection matrix seeds each vertex, then adjacency
// averaging mixes neighborhoods; weighted sums of the powers form the
// embedding (Chen et al., "Fast and accurate network embeddings via very
// sparse random projection", which the paper cites as FastRP).
// The returned map is vertex -> row index into the matrix.
func FastRP(g *lpg.Graph, cfg FastRPConfig) (*Matrix, map[lpg.VertexID]int) {
	ids := g.VertexIDs()
	index := make(map[lpg.VertexID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	n := len(ids)
	if cfg.Dim <= 0 {
		cfg.Dim = 32
	}
	if len(cfg.Weights) == 0 {
		cfg.Weights = []float64{1}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Very sparse random projection: entries in {-sqrt(s), 0, +sqrt(s)} with
	// s = 3 (prob 1/6, 2/3, 1/6).
	cur := NewMatrix(n, cfg.Dim)
	root := math.Sqrt(3)
	for i := 0; i < n; i++ {
		row := cur.Row(i)
		for j := range row {
			switch rng.Intn(6) {
			case 0:
				row[j] = root
			case 1:
				row[j] = -root
			}
		}
	}
	out := NewMatrix(n, cfg.Dim)
	for _, w := range cfg.Weights {
		next := NewMatrix(n, cfg.Dim)
		// next = normalized-adjacency × cur (mean over neighbors).
		for i, id := range ids {
			nbrs := g.Neighbors(id)
			if len(nbrs) == 0 {
				continue
			}
			dst := next.Row(i)
			for _, nb := range nbrs {
				src := cur.Row(index[nb])
				for j := range dst {
					dst[j] += src[j]
				}
			}
			inv := 1 / float64(len(nbrs))
			for j := range dst {
				dst[j] *= inv
			}
		}
		for i := 0; i < n*cfg.Dim; i++ {
			out.Data[i] += w * next.Data[i]
		}
		cur = next
	}
	if cfg.NormalizeL2 {
		for i := 0; i < n; i++ {
			l2NormalizeRow(out.Row(i))
		}
	}
	return out, index
}

func l2NormalizeRow(row []float64) {
	var norm float64
	for _, v := range row {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for j := range row {
		row[j] /= norm
	}
}

// SeriesFeatures builds the feature matrix of ts.Features vectors, one row
// per series.
func SeriesFeatures(series []*ts.Series) *Matrix {
	m := NewMatrix(len(series), ts.NumFeatures)
	for i, s := range series {
		copy(m.Row(i), s.Features())
	}
	return m
}

// StandardizeColumns scales every column to zero mean and unit variance in
// place (columns with zero variance become all zeros). Do this before
// concatenating feature families with different scales.
func StandardizeColumns(m *Matrix) {
	for j := 0; j < m.Cols; j++ {
		var mean float64
		for i := 0; i < m.Rows; i++ {
			mean += m.At(i, j)
		}
		mean /= float64(m.Rows)
		var variance float64
		for i := 0; i < m.Rows; i++ {
			d := m.At(i, j) - mean
			variance += d * d
		}
		variance /= float64(m.Rows)
		sd := math.Sqrt(variance)
		for i := 0; i < m.Rows; i++ {
			if sd == 0 {
				m.Set(i, j, 0)
			} else {
				m.Set(i, j, (m.At(i, j)-mean)/sd)
			}
		}
	}
}
