package ttdb

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"hygraph/internal/storage/tsstore"
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
// agg, folded from the hypertable's chunks at read time, so a client that
// just had AppendPoint acknowledged reads its own write in the aggregate.
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

// Result is the answer to one Query, as columns. Op says which are filled:
//
//   - Q1, Q2, downsample: Points;
//   - Q3, Q7: Scalar;
//   - Q4: IDs and Vals, one row per station with its mean (0 for a station
//     without samples), in the layer's station order: insertion order in an
//     engine, ascending id at the coordinator;
//   - Q5: Names and Vals, one row per district with its sum;
//   - Q6: IDs, the ranking;
//   - Q8: IDs and Vals, one row per neighbour with its mean, in adjacency
//     order.
//
// An answered Q4, Q5, Q6 or Q8 has non-nil columns, empty when there is
// nothing to list. The zero Result is "no answer".
type Result struct {
	Op     Op
	Points []ts.Point
	Scalar float64
	IDs    []StationID
	Names  []string
	Vals   []float64
}

// FromSummaries is the one Q4–Q6 builder, shared by both engines and the
// coordinator. rows are the layer's stations in its own order, each with
// its summary over the query window; districts, read by Q5 alone, holds
// each row's district. Q5 folds the sums in row order, so a layer that
// keeps insertion order gets bit-identical sums at any worker or partition
// count; its districts are listed in the order they first appear.
func FromSummaries(q Query, rows []tsstore.EntitySummary, districts []string) Result {
	res := Result{Op: q.Op}
	switch q.Op {
	case OpQ4:
		res.IDs = make([]StationID, len(rows))
		res.Vals = make([]float64, len(rows))
		for i, r := range rows {
			res.IDs[i] = StationID(r.Entity)
			if r.Count > 0 {
				res.Vals[i] = r.Mean()
			}
		}
	case OpQ5:
		res.Names, res.Vals = []string{}, []float64{}
		at := map[string]int{}
		for i, r := range rows {
			j, ok := at[districts[i]]
			if !ok {
				j = len(res.Names)
				at[districts[i]] = j
				res.Names = append(res.Names, districts[i])
				res.Vals = append(res.Vals, 0)
			}
			res.Vals[j] += r.Sum
		}
	case OpQ6:
		res.IDs = topK(rows, q.K)
	}
	return res
}

// topK is the Q6 ranking: the k stations with samples that have the highest
// means. A NaN mean ranks after every number, and ties go to the lower id,
// so the ranking is one order whatever the rows' order.
func topK(rows []tsstore.EntitySummary, k int) []StationID {
	type ranked struct {
		id   StationID
		mean float64
	}
	rs := make([]ranked, 0, len(rows))
	for _, r := range rows {
		if r.Count > 0 {
			rs = append(rs, ranked{StationID(r.Entity), r.Mean()})
		}
	}
	// cmp.Compare orders NaN below every number, so descending puts it last.
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := cmp.Compare(b.mean, a.mean); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	ids := make([]StationID, min(k, len(rs)))
	for i := range ids {
		ids[i] = rs[i].id
	}
	return ids
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
// a /v1 query response: the filled columns alone, encoded as encoding/json
// encodes the Go value they stand for — []ts.Point, float64, an object of
// floats keyed by station id or district (keys in string order), or an
// array of ids — with a nil column as null, except that a non-finite float
// (a mean over a NaN sample, a correlation of a constant series) is written
// as null instead of failing the encoder.
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
		if r.IDs == nil {
			break
		}
		return appendObject(b, r.IDs, r.Vals, cmpDecimal, appendID)
	case OpQ5:
		if r.Names == nil {
			break
		}
		return appendObject(b, r.Names, r.Vals, strings.Compare, appendString)
	case OpQ6:
		if r.IDs == nil {
			break
		}
		b = append(b, '[')
		for i, st := range r.IDs {
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

// appendObject writes keys[i]: vals[i] as a JSON object with its members in
// the order of order over the keys — the string order encoding/json sorts
// map keys in. It sorts a permutation and leaves the columns as they are.
func appendObject[K any](b []byte, keys []K, vals []float64, order func(K, K) int, appendKey func([]byte, K) []byte) []byte {
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(i, j int) int { return order(keys[i], keys[j]) })
	b = slices.Grow(b, 2+24*len(keys)) // `"123":0.123456789012345,`
	b = append(b, '{')
	for n, i := range perm {
		if n > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, keys[i])
		b = append(b, ':')
		b = appendFloat(b, vals[i])
	}
	return append(b, '}')
}

// pow10 holds the powers of ten up to the largest a uint32 can need.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// digits is the length of v's decimal form.
func digits(v StationID) int {
	n := 1
	for n < len(pow10) && uint64(v) >= pow10[n] {
		n++
	}
	return n
}

// cmpDecimal orders two ids as their decimal strings compare, without
// formatting them: the shorter number, scaled by a power of ten to the
// longer one's length (a uint32 scaled in a uint64 cannot overflow),
// compares as its digits do against the longer one's leading digits, and
// when those are equal the shorter number, a prefix, comes first.
func cmpDecimal(a, b StationID) int {
	da, db := digits(a), digits(b)
	x, y := uint64(a)*pow10[max(db-da, 0)], uint64(b)*pow10[max(da-db, 0)]
	if c := cmp.Compare(x, y); c != 0 {
		return c
	}
	return cmp.Compare(da, db)
}

// appendID writes a station id as a JSON object key.
func appendID(b []byte, id StationID) []byte {
	b = append(b, '"')
	b = strconv.AppendUint(b, uint64(id), 10)
	return append(b, '"')
}

// appendString writes s as a JSON string: verbatim between quotes when it is
// plain ASCII that encoding/json would not escape (ordinary district
// names), through encoding/json otherwise.
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
