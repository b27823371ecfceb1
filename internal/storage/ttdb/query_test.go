package ttdb

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"hygraph/internal/ts"
)

// jsonFloats are TestResultJSONMatchesEncodingJSON's values: both exponent
// boundaries, the extremes, and sums that do not print short.
var jsonFloats = []float64{0, 1, -2.5, 1e-7, 1.5e-9, 1e21, 123456789.125, 1e20, -1e-6, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64}

// A finite Result encodes byte-for-byte as encoding/json encodes the Go value
// the old typed methods returned — the /v1 wire did exactly that.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	floats := jsonFloats
	var pts []ts.Point
	byStation := map[StationID]float64{}
	byDistrict := map[string]float64{}
	var ids []StationID
	var names []string
	for i, f := range floats {
		pts = append(pts, ts.Point{T: ts.Time(i-3) * ts.Hour, V: f})
		byStation[StationID(i*7)] = f // 0, 7, 14, … 77: string order differs from numeric order
		ids = append(ids, StationID(i*7))
		byDistrict[string(rune('a'+i))+"<&\"é\x01"] = f
		names = append(names, string(rune('a'+i))+"<&\"é\x01")
	}
	cases := []struct {
		res  Result
		want any
	}{
		{Result{Op: OpQ1, Points: pts}, pts},
		{Result{Op: OpQ2, Points: []ts.Point{}}, []ts.Point{}},
		{Result{Op: OpDownsample}, []ts.Point(nil)},
		{Result{Op: OpQ3, Scalar: 12.25}, 12.25},
		{Result{Op: OpQ7, Scalar: -1e-9}, -1e-9},
		{Result{Op: OpQ4, IDs: ids, Vals: floats}, byStation},
		{Result{Op: OpQ8, IDs: []StationID{}, Vals: []float64{}}, map[StationID]float64{}},
		{Result{Op: OpQ8}, map[StationID]float64(nil)},
		{Result{Op: OpQ5, Names: names, Vals: floats}, byDistrict},
		{Result{Op: OpQ5}, map[string]float64(nil)},
		{Result{Op: OpQ6, IDs: []StationID{9, 1, 30}}, []StationID{9, 1, 30}},
		{Result{Op: OpQ6, IDs: []StationID{}}, []StationID{}},
		{Result{Op: OpQ6}, []StationID(nil)},
		{Result{}, nil},
	}
	for _, c := range cases {
		// Inside an envelope, as the server sends it: the outer encoder
		// re-validates and HTML-escapes what MarshalJSON returns.
		got, err := json.Marshal(map[string]any{"result": c.res})
		if err != nil {
			t.Fatalf("%s: %v", c.res.Op, err)
		}
		want, err := json.Marshal(map[string]any{"result": c.want})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", c.res.Op, got, want)
		}
	}
}

// Non-finite floats, which encoding/json refuses, are written as null.
func TestResultJSONNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		res  Result
		want string
	}{
		{Result{Op: OpQ7, Scalar: nan}, `null`},
		{Result{Op: OpQ3, Scalar: -inf}, `null`},
		{Result{Op: OpQ4, IDs: []StationID{2, 1}, Vals: []float64{3, nan}}, `{"1":null,"2":3}`},
		{Result{Op: OpQ5, Names: []string{"n"}, Vals: []float64{inf}}, `{"n":null}`},
		{Result{Op: OpDownsample, Points: []ts.Point{{T: 5, V: inf}, {T: 6, V: 1}}}, `[{"T":5,"V":null},{"T":6,"V":1}]`},
	} {
		got, err := json.Marshal(c.res)
		if err != nil || string(got) != c.want {
			t.Errorf("%s: %s, %v; want %s", c.res.Op, got, err, c.want)
		}
	}
}

// A 300-station Q4 answer encodes into a buffer that has room with one
// allocation, the permutation that puts its keys in string order: no id is
// formatted into a string of its own.
func TestQ4AppendJSONAllocatesOnce(t *testing.T) {
	res := Result{Op: OpQ4}
	for i := 0; i < 300; i++ {
		res.IDs = append(res.IDs, StationID(i))
		res.Vals = append(res.Vals, float64(i)/7)
	}
	buf := res.AppendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { buf = res.AppendJSON(buf[:0]) }); n > 1 {
		t.Fatalf("Q4 AppendJSON of 300 stations: %v allocations, want at most 1", n)
	}
}

// FuzzResultJSON checks the keyed answers' encoding against encoding/json:
// a Q4, Q5 or Q8 Result encodes exactly as encoding/json encodes the
// map[string]any of its rows, a non-finite value as nil, a nil column as
// null and an empty one as {}. The data holds rows: for Q4 and Q8 a
// little-endian uint32 id and a float64's bits, for Q5 a length byte, that
// many bytes of district name (any bytes, valid UTF-8 or not) and the
// float's bits. A repeated key is skipped, as a map would hold it once.
func FuzzResultJSON(f *testing.F) {
	ids := []uint32{0, 9, 10, 99, 100, 1, 7, 70, 77, 1000, 4294967295, 429496729}
	var idRows, nameRows []byte
	for i, v := range append(jsonFloats, math.NaN(), math.Inf(-1)) {
		idRows = binary.LittleEndian.AppendUint32(idRows, ids[i%len(ids)])
		idRows = binary.LittleEndian.AppendUint64(idRows, math.Float64bits(v))
		name := string(rune('a'+i)) + "<&\"é\x01"
		nameRows = append(append(nameRows, byte(len(name))), name...)
		nameRows = binary.LittleEndian.AppendUint64(nameRows, math.Float64bits(v))
	}
	for _, op := range []Op{OpQ4, OpQ5, OpQ8} {
		rows := idRows
		if op == OpQ5 {
			rows = nameRows
		}
		f.Add(uint8(op), false, rows)
		f.Add(uint8(op), false, []byte{})
		f.Add(uint8(op), true, []byte{})
	}
	f.Fuzz(func(t *testing.T, op uint8, nilColumns bool, data []byte) {
		res := Result{Op: []Op{OpQ4, OpQ5, OpQ8}[op%3]}
		var want map[string]any
		if !nilColumns {
			want = map[string]any{}
			res.Vals = []float64{}
			if res.Op == OpQ5 {
				res.Names = []string{}
			} else {
				res.IDs = []StationID{}
			}
		}
		for !nilColumns {
			var key string
			var id uint32
			if res.Op == OpQ5 {
				if len(data) < 1 || len(data) < 1+int(data[0])+8 {
					break
				}
				key, data = string(data[1:1+data[0]]), data[1+data[0]:]
			} else {
				if len(data) < 12 {
					break
				}
				id, data = binary.LittleEndian.Uint32(data), data[4:]
				key = strconv.FormatUint(uint64(id), 10)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if _, dup := want[key]; dup {
				continue
			}
			want[key] = v
			if math.IsNaN(v) || math.IsInf(v, 0) {
				want[key] = nil
			}
			if res.Op == OpQ5 {
				res.Names = append(res.Names, key)
			} else {
				res.IDs = append(res.IDs, StationID(id))
			}
			res.Vals = append(res.Vals, v)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.AppendJSON(nil); string(got) != string(wantJSON) {
			t.Fatalf("%s %+v:\n got %s\nwant %s", res.Op, res, got, wantJSON)
		}
	})
}
