package mark

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// Op is one request of a workload. Station fields are dataset indexes; the
// harness maps them to the ids the server assigned.
type Op struct {
	Class  string  `json:"class"` // Q1..Q8, downsample, append, H1..H4
	St     int     `json:"st"`
	Other  int     `json:"other,omitempty"` // Q7's second station
	Start  int64   `json:"start,omitempty"`
	End    int64   `json:"end,omitempty"`
	Below  float64 `json:"below,omitempty"`  // Q2
	K      int     `json:"k,omitempty"`      // Q6
	Bucket int64   `json:"bucket,omitempty"` // Q7, downsample
	V      float64 `json:"v,omitempty"`      // append: the sample at Start
}

// Gen yields a workload's ops in order; the same seed yields the same ops.
type Gen interface{ Next() Op }

// pick draws a class from a cumulative percent table.
func pick(r *rand.Rand, classes []string, upTo []int) string {
	p := r.Intn(100)
	for i, u := range upTo {
		if p < u {
			return classes[i]
		}
	}
	return classes[len(classes)-1]
}

// window draws a range of minWeeks..maxWeeks weeks starting at a random hour,
// so its two ends fall inside chunks and not on their boundaries.
func window(r *rand.Rand, days, minWeeks, maxWeeks int) (start, end int64) {
	width := int64(minWeeks+r.Intn(maxWeeks-minWeeks+1)) * Week
	total := int64(days) * Day
	width = min(width, total-Day)
	start = r.Int63n((total-width)/Hour) * Hour
	return start, start + width
}

type readPoint struct {
	r              *rand.Rand
	zipf           *rand.Zipf
	perm           []int
	stations, days int
}

// NewReadPoint is the read_point mix: single-station ops on Zipf(1.1)
// stations over 1 to 8 weeks. The Zipf ranks are mapped through a seeded
// permutation so the hot stations are not the first ones loaded.
func NewReadPoint(seed int64, stations, days int) Gen {
	r := rand.New(rand.NewSource(seed))
	return &readPoint{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(stations-1)),
		perm: r.Perm(stations), stations: stations, days: days}
}

func (g *readPoint) Next() Op {
	class := pick(g.r, []string{"Q1", "Q2", "Q3", "Q7", "Q8", "downsample"}, []int{10, 20, 50, 60, 85, 100})
	op := Op{Class: class, St: g.perm[g.zipf.Uint64()]}
	op.Start, op.End = window(g.r, g.days, 1, 8)
	switch class {
	case "Q2":
		op.Below = float64(5 + g.r.Intn(10))
	case "Q7":
		op.Other = (op.St + 1 + g.r.Intn(g.stations-1)) % g.stations
		op.Bucket = Hour
	case "downsample":
		op.Bucket = Day
	}
	return op
}

type readScan struct {
	r              *rand.Rand
	stations, days int
}

// NewReadScan is the read_scan mix: all-station analytics and a cross-station
// correlation over 4 to 40 weeks.
func NewReadScan(seed int64, stations, days int) Gen {
	return &readScan{r: rand.New(rand.NewSource(seed)), stations: stations, days: days}
}

func (g *readScan) Next() Op {
	class := pick(g.r, []string{"Q4", "Q5", "Q6", "Q7"}, []int{30, 60, 90, 100})
	op := Op{Class: class}
	op.Start, op.End = window(g.r, g.days, 4, 40)
	switch class {
	case "Q6":
		op.K = 10
	case "Q7":
		op.St = g.r.Intn(g.stations)
		op.Other = (op.St + 1 + g.r.Intn(g.stations-1)) % g.stations
		op.Bucket = Day
	}
	return op
}

type appends struct {
	r              *rand.Rand
	stations, days int
	j              int
}

// NewAppends is the ingest_mixed write stream: stations round-robin, each
// station's time advancing one hour per write, so a station crosses a
// week-chunk boundary every 168 rounds.
func NewAppends(seed int64, stations, days int) Gen {
	return &appends{r: rand.New(rand.NewSource(seed)), stations: stations, days: days}
}

func (g *appends) Next() Op {
	idx := g.days*24 + g.j/g.stations
	op := Op{Class: "append", St: g.j % g.stations, Start: int64(idx) * Hour, V: float64(g.r.Intn(30))}
	g.j++
	return op
}

type refreshes struct {
	r        *rand.Rand
	stations int
	next     []int // next sample index per station
}

// NewRefreshes is the hyql_live write stream: one append to a random station
// per dashboard refresh, at that station's next hour.
func NewRefreshes(seed int64, stations, days int) Gen {
	g := &refreshes{r: rand.New(rand.NewSource(seed)), stations: stations, next: make([]int, stations)}
	for i := range g.next {
		g.next[i] = days * 24
	}
	return g
}

func (g *refreshes) Next() Op {
	st := g.r.Intn(g.stations)
	op := Op{Class: "append", St: st, Start: int64(g.next[st]) * Hour, V: float64(g.r.Intn(30))}
	g.next[st]++
	return op
}

// Take draws the next n ops.
func Take(g Gen, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// HashOps is a digest of an op list, for the reproducibility test.
func HashOps(ops []Op) string {
	h := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(h, "%+v;", op)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Params spells a Q-op as the parameters of GET /v1/tenants/{t}/query. ids
// maps a dataset station index to the id the server assigned at ingest.
func Params(op Op, ids []uint32) url.Values {
	p := url.Values{"name": {op.Class}}
	set := func(k string, v int64) { p.Set(k, strconv.FormatInt(v, 10)) }
	set("start", op.Start)
	set("end", op.End)
	switch op.Class {
	case "Q1", "Q3", "Q8":
		set("station", int64(ids[op.St]))
	case "Q2":
		set("station", int64(ids[op.St]))
		p.Set("below", strconv.FormatFloat(op.Below, 'g', -1, 64))
	case "Q6":
		set("k", int64(op.K))
	case "Q7":
		set("x", int64(ids[op.St]))
		set("y", int64(ids[op.Other]))
		set("bucket", op.Bucket)
	case "downsample":
		set("station", int64(ids[op.St]))
		set("bucket", op.Bucket)
		p.Set("agg", "mean")
	}
	return p
}

// HyQLText spells H1..H4, the HyQL forms of Q3, Q5, Q6 and Q8
// (internal/bench/differential_test.go), as a dashboard would send them for
// one station over a trailing window.
func HyQLText(class, name string, start, end int64) string {
	switch class {
	case "H1":
		return fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) WHERE st.name = '%s' RETURN ts.mean(a, %d, %d)`, name, start, end)
	case "H2":
		return fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.district, sum(ts.sum(a, %d, %d))`, start, end)
	case "H3":
		return fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.name AS name, ts.mean(a, %d, %d) AS m ORDER BY m DESC, name LIMIT 10`, start, end)
	default: // H4
		return fmt.Sprintf(`MATCH (st:Station)-[:TRIP]-(n:Station)-[:HAS_SERIES]->(a) WHERE st.name = '%s' RETURN DISTINCT n.name, ts.mean(a, %d, %d)`, name, start, end)
	}
}

// StationBody spells a station as the body of POST /v1/tenants/{t}/stations.
// It is written out by hand because a year of hourly samples per station makes
// set-up mostly JSON encoding.
func StationBody(s *Station) []byte {
	b := make([]byte, 0, 64+len(s.Vals)*24)
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, `,"district":`...)
	b = strconv.AppendQuote(b, s.District)
	b = append(b, `,"points":[`...)
	for i, v := range s.Vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"t":`...)
		b = strconv.AppendInt(b, int64(i)*Hour, 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}
