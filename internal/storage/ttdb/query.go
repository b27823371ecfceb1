package ttdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"hygraph/internal/ts"
)

// Op names one query operation: the eight Table 1 queries plus the windowed
// downsample read. The zero value is not an operation.
type Op uint8

// The operations, in Table 1 order.
const (
	OpQ1 Op = iota + 1
	OpQ2
	OpQ3
	OpQ4
	OpQ5
	OpQ6
	OpQ7
	OpQ8
	OpDownsample
)

// ops is the one table keyed by Op: the wire/report/metric name and the
// human description.
var ops = [...]struct{ name, desc string }{
	OpQ1:         {"Q1", "time-range fetch, one station"},
	OpQ2:         {"Q2", "filtered range (value threshold), one station"},
	OpQ3:         {"Q3", "mean over range, one station"},
	OpQ4:         {"Q4", "mean over range, all stations"},
	OpQ5:         {"Q5", "sum per district (topology join + aggregation)"},
	OpQ6:         {"Q6", "top-k stations by mean"},
	OpQ7:         {"Q7", "correlation of two stations"},
	OpQ8:         {"Q8", "graph neighbors + per-neighbor mean (hybrid)"},
	OpDownsample: {"downsample", "bucketed aggregate over range, one station"},
}

func (o Op) valid() bool { return o >= OpQ1 && int(o) < len(ops) }

// String returns the operation's name: "Q1".."Q8" or "downsample" — the
// `name` parameter of the served query endpoint, the row label of every
// report and (lower-cased, under the engine's prefix) the timer name.
func (o Op) String() string {
	if !o.valid() {
		return "Op(" + strconv.Itoa(int(o)) + ")"
	}
	return ops[o].name
}

// Describe returns the human description of the operation.
func (o Op) Describe() string {
	if !o.valid() {
		return "unknown query " + o.String()
	}
	return ops[o].desc
}

// ParseOp is the inverse of String.
func ParseOp(name string) (Op, bool) {
	for o := OpQ1; o.valid(); o++ {
		if ops[o].name == name {
			return o, true
		}
	}
	return 0, false
}

// Query describes one query as a plain value, so the same descriptor runs
// against every layer's Exec and can cross a process boundary unchanged.
// Fields an operation does not read are ignored.
type Query struct {
	Op      Op
	Station StationID // Q1–Q3, Q8, downsample: the station; Q7: the first station
	Other   StationID // Q7: the second station
	Start   ts.Time   // every op reads the window [Start, End)
	End     ts.Time
	Bucket  ts.Time    // Q7: resample width (<= 0 joins raw timestamps); downsample: bucket width
	Below   float64    // Q2: keep values below this threshold
	K       int        // Q6: how many stations to rank
	Agg     ts.AggFunc // downsample: the aggregation
}

// Q1 is the raw time-range fetch for one station.
func Q1(st StationID, start, end ts.Time) Query {
	return Query{Op: OpQ1, Station: st, Start: start, End: end}
}

// Q2 is the range fetch keeping only values below the threshold.
func Q2(st StationID, start, end ts.Time, below float64) Query {
	return Query{Op: OpQ2, Station: st, Start: start, End: end, Below: below}
}

// Q3 is the mean of one station over the range.
func Q3(st StationID, start, end ts.Time) Query {
	return Query{Op: OpQ3, Station: st, Start: start, End: end}
}

// Q4 is the mean per station over the range, for every station.
func Q4(start, end ts.Time) Query { return Query{Op: OpQ4, Start: start, End: end} }

// Q5 is the total availability per district over the range.
func Q5(start, end ts.Time) Query { return Query{Op: OpQ5, Start: start, End: end} }

// Q6 is the k stations with the highest mean over the range.
func Q6(start, end ts.Time, k int) Query { return Query{Op: OpQ6, Start: start, End: end, K: k} }

// Q7 is the Pearson correlation of two stations' series over the range.
func Q7(a, b StationID, start, end, bucket ts.Time) Query {
	return Query{Op: OpQ7, Station: a, Other: b, Start: start, End: end, Bucket: bucket}
}

// Q8 is the mean availability of every station adjacent to st via trips.
func Q8(st StationID, start, end ts.Time) Query {
	return Query{Op: OpQ8, Station: st, Start: start, End: end}
}

// Downsample is one station's series resampled to bucket-wide windows under
// agg, served from the hypertable's continuous-aggregate cache: a warm
// window is patched in place per append, so a client that just had
// AppendPoint acknowledged reads its own write in the aggregate.
func Downsample(st StationID, start, end, bucket ts.Time, agg ts.AggFunc) Query {
	return Query{Op: OpDownsample, Station: st, Start: start, End: end, Bucket: bucket, Agg: agg}
}

// ErrBadQuery marks a descriptor no layer will run; match with errors.Is.
var ErrBadQuery = errors.New("ttdb: bad query")

// Validate rejects descriptors that have no answer: an unknown operation, a
// negative k, or a downsample without a positive bucket.
func (q Query) Validate() error {
	switch {
	case !q.Op.valid():
		return fmt.Errorf("%w: unknown operation %d", ErrBadQuery, q.Op)
	case q.K < 0:
		return fmt.Errorf("%w: k must not be negative, got %d", ErrBadQuery, q.K)
	case q.Op == OpDownsample && q.Bucket <= 0:
		return fmt.Errorf("%w: downsample needs bucket > 0, got %d", ErrBadQuery, q.Bucket)
	}
	return nil
}

// Querier is the query surface of every layer — both storage architectures,
// the durable engine and the partition coordinator. A done context wins over
// everything and returns the zero Result; a degraded answer carries the part
// that is still derivable together with an error matching ErrDegraded.
type Querier interface {
	Exec(ctx context.Context, q Query) (Result, error)
}

// Result is the answer to one Query. Op says which field is filled: Points
// for Q1, Q2 and downsample, Scalar for Q3 and Q7, ByStation for Q4 and Q8,
// ByDistrict for Q5, Stations for Q6. The zero Result is "no answer".
type Result struct {
	Op         Op
	Points     []ts.Point
	Scalar     float64
	ByStation  map[StationID]float64
	ByDistrict map[string]float64
	Stations   []StationID
}

// begin is the entry check every Exec starts with: a done context wins, then
// the descriptor must be valid.
func begin(ctx context.Context, q Query) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return q.Validate()
}

// finish is the exit every engine Exec ends with: an operation's own error,
// or a context that ended while it ran, discards the answer.
func finish(ctx context.Context, res Result, err error) (Result, error) {
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// AppendJSON is the one wire encoding of a Result, the value of "result" in
// a /v1 query response: the filled field alone, encoded as encoding/json
// encodes that Go value (map keys sorted as strings, nil as null), except
// that a non-finite float — a mean over a NaN sample, a correlation of a
// constant series — is written as null instead of failing the encoder.
func (r Result) AppendJSON(b []byte) []byte {
	switch r.Op {
	case OpQ1, OpQ2, OpDownsample:
		if r.Points == nil {
			break
		}
		b = slices.Grow(b, 2+32*len(r.Points)) // `{"T":1700000000000,"V":12.5},`
		b = append(b, '[')
		for i, p := range r.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"T":`...)
			b = strconv.AppendInt(b, int64(p.T), 10)
			b = append(b, `,"V":`...)
			b = appendFloat(b, p.V)
			b = append(b, '}')
		}
		return append(b, ']')
	case OpQ3, OpQ7:
		return appendFloat(b, r.Scalar)
	case OpQ4, OpQ8:
		if r.ByStation == nil {
			break
		}
		kvs := make([]keyed, 0, len(r.ByStation))
		for st, v := range r.ByStation {
			kvs = append(kvs, keyed{strconv.FormatUint(uint64(st), 10), v})
		}
		return appendObject(b, kvs)
	case OpQ5:
		if r.ByDistrict == nil {
			break
		}
		kvs := make([]keyed, 0, len(r.ByDistrict))
		for d, v := range r.ByDistrict {
			kvs = append(kvs, keyed{d, v})
		}
		return appendObject(b, kvs)
	case OpQ6:
		if r.Stations == nil {
			break
		}
		b = append(b, '[')
		for i, st := range r.Stations {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(st), 10)
		}
		return append(b, ']')
	}
	return append(b, "null"...)
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (r Result) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil), nil }

// keyed is one member of a JSON object of floats.
type keyed struct {
	k string
	v float64
}

// appendObject writes the members as a JSON object, keys in string order.
func appendObject(b []byte, kvs []keyed) []byte {
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	b = append(b, '{')
	for i, e := range kvs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, e.k)
		b = append(b, ':')
		b = appendFloat(b, e.v)
	}
	return append(b, '}')
}

// appendString writes s as a JSON string: verbatim between quotes when it is
// plain ASCII that encoding/json would not escape (station ids, ordinary
// district names), through encoding/json otherwise.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat writes a float64 the way encoding/json does (shortest form,
// exponent only below 1e-6 or from 1e21, two-digit exponents trimmed), and a
// non-finite value as null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
