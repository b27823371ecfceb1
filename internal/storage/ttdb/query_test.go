package ttdb

import (
	"encoding/json"
	"math"
	"testing"

	"hygraph/internal/ts"
)

// A finite Result encodes byte-for-byte as encoding/json encodes the Go value
// the old typed methods returned — the /v1 wire did exactly that.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, 1, -2.5, 1e-7, 1.5e-9, 1e21, 123456789.125, 1e20, -1e-6, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var pts []ts.Point
	byStation := map[StationID]float64{}
	byDistrict := map[string]float64{}
	for i, f := range floats {
		pts = append(pts, ts.Point{T: ts.Time(i-3) * ts.Hour, V: f})
		byStation[StationID(i*7)] = f // 0, 7, 14, … 77: string order differs from numeric order
		byDistrict[string(rune('a'+i))+"<&\"é\x01"] = f
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
		{Result{Op: OpQ4, ByStation: byStation}, byStation},
		{Result{Op: OpQ8, ByStation: map[StationID]float64{}}, map[StationID]float64{}},
		{Result{Op: OpQ8}, map[StationID]float64(nil)},
		{Result{Op: OpQ5, ByDistrict: byDistrict}, byDistrict},
		{Result{Op: OpQ5}, map[string]float64(nil)},
		{Result{Op: OpQ6, Stations: []StationID{9, 1, 30}}, []StationID{9, 1, 30}},
		{Result{Op: OpQ6, Stations: []StationID{}}, []StationID{}},
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
		{Result{Op: OpQ4, ByStation: map[StationID]float64{1: nan, 2: 3}}, `{"1":null,"2":3}`},
		{Result{Op: OpQ5, ByDistrict: map[string]float64{"n": inf}}, `{"n":null}`},
		{Result{Op: OpDownsample, Points: []ts.Point{{T: 5, V: inf}, {T: 6, V: 1}}}, `[{"T":5,"V":null},{"T":6,"V":1}]`},
	} {
		got, err := json.Marshal(c.res)
		if err != nil || string(got) != c.want {
			t.Errorf("%s: %s, %v; want %s", c.res.Op, got, err, c.want)
		}
	}
}
