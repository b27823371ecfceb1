package mark

import (
	"math"
	"sort"
)

// Point is one sample as the wire protocol spells it.
type Point struct {
	T int64
	V float64
}

// Model is the reference the served answers are checked against: every
// station's samples on the hourly grid (sample i is at i*Hour) and its TRIP
// neighbours. It also holds the samples a workload will append, in the order
// it appends them, so a query is answered over a prefix of n samples and a
// reader racing a writer can ask for the answer at each prefix the server
// may have seen. Every method is a plain loop over that prefix.
type Model struct {
	Names     []string
	Districts []string
	Vals      [][]float64
	Adj       [][]int // distinct neighbours over either direction, in trip order
}

// NewModel copies the dataset into a model.
func NewModel(d *Dataset) *Model {
	m := &Model{Adj: make([][]int, len(d.Stations))}
	for _, s := range d.Stations {
		m.Names = append(m.Names, s.Name)
		m.Districts = append(m.Districts, s.District)
		m.Vals = append(m.Vals, append([]float64(nil), s.Vals...))
	}
	link := func(a, b int) {
		for _, o := range m.Adj[a] {
			if o == b {
				return
			}
		}
		m.Adj[a] = append(m.Adj[a], b)
	}
	for _, t := range d.Trips {
		link(t.From, t.To)
		link(t.To, t.From)
	}
	return m
}

// Lens returns the number of samples each station holds.
func (m *Model) Lens() []int {
	n := make([]int, len(m.Vals))
	for i, v := range m.Vals {
		n[i] = len(v)
	}
	return n
}

// span returns the sample indexes [lo, hi) of the first n samples that fall
// in the half-open time range [start, end).
func span(n int, start, end int64) (lo, hi int) {
	ceil := func(t int64) int {
		if t <= 0 {
			return 0
		}
		return int((t + Hour - 1) / Hour)
	}
	lo, hi = ceil(start), min(ceil(end), n)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Range is Q1: the samples of one station in [start, end).
func (m *Model) Range(st, n int, start, end int64) []Point {
	return m.Below(st, n, start, end, math.Inf(1))
}

// Below is Q2: the samples in range whose value is under the threshold.
func (m *Model) Below(st, n int, start, end int64, below float64) []Point {
	var out []Point
	lo, hi := span(n, start, end)
	for i := lo; i < hi; i++ {
		if v := m.Vals[st][i]; v < below {
			out = append(out, Point{T: int64(i) * Hour, V: v})
		}
	}
	return out
}

// Sum returns the sum and count of one station's samples in range.
func (m *Model) Sum(st, n int, start, end int64) (sum float64, count int) {
	lo, hi := span(n, start, end)
	for i := lo; i < hi; i++ {
		sum += m.Vals[st][i]
	}
	return sum, hi - lo
}

// Mean is Q3: the mean over the range, 0 when the range holds no sample.
func (m *Model) Mean(st, n int, start, end int64) float64 {
	sum, count := m.Sum(st, n, start, end)
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Downsample returns the bucket means of the range, one point per non-empty
// bucket stamped at the bucket start; buckets align to multiples of bucket.
func (m *Model) Downsample(st, n int, start, end, bucket int64) []Point {
	var out []Point
	lo, hi := span(n, start, end)
	for i := lo; i < hi; {
		b := int64(i) * Hour / bucket * bucket
		sum, j := 0.0, i
		for ; j < hi && int64(j)*Hour < b+bucket; j++ {
			sum += m.Vals[st][j]
		}
		out = append(out, Point{T: b, V: sum / float64(j-i)})
		i = j
	}
	return out
}

// Corr is Q7: the Pearson correlation of two stations' bucket means over the
// buckets both have; NaN with fewer than two shared buckets or a constant side.
func (m *Model) Corr(x, nx, y, ny int, start, end, bucket int64) float64 {
	a, b := m.Downsample(x, nx, start, end, bucket), m.Downsample(y, ny, start, end, bucket)
	var av, bv []float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].T < b[j].T:
			i++
		case a[i].T > b[j].T:
			j++
		default:
			av, bv = append(av, a[i].V), append(bv, b[j].V)
			i, j = i+1, j+1
		}
	}
	if len(av) < 2 {
		return math.NaN()
	}
	var ma, mb float64
	for i := range av {
		ma += av[i] / float64(len(av))
		mb += bv[i] / float64(len(av))
	}
	var sab, saa, sbb float64
	for i := range av {
		da, db := av[i]-ma, bv[i]-mb
		sab, saa, sbb = sab+da*db, saa+da*da, sbb+db*db
	}
	if saa == 0 || sbb == 0 {
		return math.NaN()
	}
	return sab / math.Sqrt(saa*sbb)
}

// Means is Q4: every station's mean over the range (0 when empty), each over
// its own prefix.
func (m *Model) Means(lens []int, start, end int64) []float64 {
	out := make([]float64, len(m.Vals))
	for st := range out {
		out[st] = m.Mean(st, lens[st], start, end)
	}
	return out
}

// DistrictSums is Q5: the total over the range per district.
func (m *Model) DistrictSums(lens []int, start, end int64) map[string]float64 {
	out := map[string]float64{}
	for st := range m.Vals {
		sum, _ := m.Sum(st, lens[st], start, end)
		out[m.Districts[st]] += sum
	}
	return out
}

// TopK is Q6: the k stations with the highest mean over the range, ties by
// ascending station; stations with no sample in range do not rank.
func (m *Model) TopK(lens []int, start, end int64, k int) []int {
	means := m.Means(lens, start, end)
	var ids []int
	for st := range means {
		if _, count := m.Sum(st, lens[st], start, end); count > 0 {
			ids = append(ids, st)
		}
	}
	sort.SliceStable(ids, func(i, j int) bool { return means[ids[i]] > means[ids[j]] })
	return ids[:min(k, len(ids))]
}

// Close reports whether two floats agree to 1e-9 relative; NaN equals NaN.
func Close(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// ClosePoints reports whether two point lists agree: same times, close values.
func ClosePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || !Close(a[i].V, b[i].V) {
			return false
		}
	}
	return true
}
