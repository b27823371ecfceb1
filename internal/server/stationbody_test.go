package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hygraph/internal/ts"
)

// refDecodeStation is the reflective decode the stations endpoint ran
// before parseStation, kept as FuzzStationBody's oracle.
func refDecodeStation(body []byte) (stationReq, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req stationReq
	err := dec.Decode(&req)
	return req, err
}

// sameStation reports whether two requests are equal bit for bit.
func sameStation(a, b stationReq) bool {
	if a.Name != b.Name || a.District != b.District || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.T != q.T || math.Float64bits(p.V) != math.Float64bits(q.V) {
			return false
		}
	}
	return true
}

// stationBodyQuirks pins what the reflective decode does with odd bodies;
// parseStation must do the same. want is nil for a rejected body.
var stationBodyQuirks = []struct {
	name, body string
	want       *stationReq
}{
	{"plain", `{"name":"a","district":"b","points":[{"t":1,"v":2.5},{"t":3,"v":-4}]}`,
		&stationReq{"a", "b", []pointJSON{{1, 2.5}, {3, -4}}}},
	{"top-level null", `null`, &stationReq{}},
	{"top-level null, then junk", ` null}{x`, &stationReq{}},
	{"folded keys", `{"NAME":"a","diſtrict":"b","PointS":[{"T":1,"V":2}]}`,
		&stationReq{"a", "b", []pointJSON{{1, 2}}}},
	{"escaped key", `{"n\u0061ME":"a"}`, &stationReq{Name: "a"}},
	{"escaped, non-ASCII value", `{"name":"aé\n\"\u00e9"}`, &stationReq{Name: "aé\n\"é"}},
	{"invalid UTF-8 unquotes to U+FFFD", "{\"name\":\"a\xffb\"}", &stationReq{Name: "a�b"}},
	{"null and {} elements", `{"points":[null,{},{"t":null,"v":null}]}`,
		&stationReq{Points: []pointJSON{{}, {}, {}}}},
	{"null name keeps the earlier one", `{"name":"a","name":null}`, &stationReq{Name: "a"}},
	{"repeated key overwrites", `{"name":"a","Name":"b"}`, &stationReq{Name: "b"}},
	{"bytes after the object", `{"name":"a"} trailing {`, &stationReq{Name: "a"}},
	{"repeated points merge", `{"points":[{"t":1,"v":2}],"points":[{"v":3}]}`,
		&stationReq{Points: []pointJSON{{1, 3}}}},
	{"repeated points reach earlier elements past a shorter array",
		`{"points":[{"t":1,"v":1},{"t":2,"v":2},{"t":3,"v":3}],"points":[{}],"points":[null,{"v":9}]}`,
		&stationReq{Points: []pointJSON{{1, 1}, {2, 9}}}},
	{"[] starts points afresh", `{"points":[{"t":1,"v":1}],"points":[],"points":[{}]}`,
		&stationReq{Points: []pointJSON{{}}}},
	{"null points starts afresh", `{"points":[{"t":1,"v":1}],"points":null,"points":[null]}`,
		&stationReq{Points: []pointJSON{{}}}},
	{"number forms", `{"points":[{"t":-0,"v":-0},{"t":9223372036854775807,"v":1e-400},{"t":-9223372036854775808,"v":1.5E+3}]}`,
		&stationReq{Points: []pointJSON{{0, math.Copysign(0, -1)}, {math.MaxInt64, 0}, {math.MinInt64, 1500}}}},
	{"whitespace", " \t\r\n{ \"name\" : \"a\" , \"points\" : [ { \"t\" : 1 } , null ] } ",
		&stationReq{Name: "a", Points: []pointJSON{{1, 0}, {}}}},

	{"empty body", ``, nil},
	{"only whitespace", ` `, nil},
	{"truncated null", `nul`, nil},
	{"top-level array", `[]`, nil},
	{"top-level string", `"a"`, nil},
	{"top-level number", `1`, nil},
	{"unknown key", `{"name":"a","extra":1}`, nil},
	{"unknown point key", `{"points":[{"t":1,"w":2}]}`, nil},
	{"fractional t", `{"points":[{"t":1.5}]}`, nil},
	{"exponent t", `{"points":[{"t":1e3}]}`, nil},
	{"t overflows", `{"points":[{"t":9223372036854775808}]}`, nil},
	{"v overflows", `{"points":[{"v":1e400}]}`, nil},
	{"string v", `{"points":[{"v":"1"}]}`, nil},
	{"bool v", `{"points":[{"v":true}]}`, nil},
	{"numeric name", `{"name":1}`, nil},
	{"object points", `{"points":{}}`, nil},
	{"array element", `{"points":[[]]}`, nil},
	{"leading zero", `{"points":[{"t":01}]}`, nil},
	{"plus sign", `{"points":[{"t":+1}]}`, nil},
	{"bare minus", `{"points":[{"t":-}]}`, nil},
	{"dot without digits", `{"points":[{"v":1.}]}`, nil},
	{"exponent without digits", `{"points":[{"v":1e+}]}`, nil},
	{"trailing comma in object", `{"name":"a",}`, nil},
	{"trailing comma in array", `{"points":[{},]}`, nil},
	{"missing colon", `{"name" "a"}`, nil},
	{"unterminated object", `{"name":"a"`, nil},
	{"unterminated string", `{"name":"a`, nil},
	{"control byte in string", "{\"name\":\"a\x01\"}", nil},
	{"bad escape", `{"name":"\x"}`, nil},
	{"short unicode escape", `{"name":"\u12"}`, nil},
	{"null followed by junk inside", `{"name":nullx}`, nil},
	{"capitalised null", `{"name":Null}`, nil},
}

func TestStationBodyQuirks(t *testing.T) {
	for _, tc := range stationBodyQuirks {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseStation([]byte(tc.body))
			want, refErr := refDecodeStation([]byte(tc.body))
			if (refErr == nil) != (tc.want != nil) {
				t.Fatalf("reference decode err = %v; the table says accepted = %v", refErr, tc.want != nil)
			}
			if tc.want == nil {
				if err == nil {
					t.Fatalf("accepted %+v, want a rejection (reference: %v)", got, refErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !sameStation(want, *tc.want) {
				t.Fatalf("reference decoded %+v; the table says %+v", want, *tc.want)
			}
			if !sameStation(got, want) {
				t.Fatalf("decoded %+v, want %+v", got, want)
			}
		})
	}
}

// FuzzStationBody holds parseStation to the reflective decode it replaced:
// both accept or both reject a body, and an accepted body yields the same
// name, district and points, bit for bit.
func FuzzStationBody(f *testing.F) {
	for _, tc := range stationBodyQuirks {
		f.Add([]byte(tc.body))
	}
	f.Add(stationBody(5, 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := parseStation(body)
		want, refErr := refDecodeStation(body)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("parseStation err = %v, reference err = %v", err, refErr)
		}
		if err == nil && !sameStation(got, want) {
			t.Fatalf("parseStation decoded %+v, reference %+v", got, want)
		}
	})
}

// A body over maxBody is rejected even when its object ends well before.
func TestStationBodyOverCap(t *testing.T) {
	_, hs, _, _ := newTestServer(t, Limits{})
	body := `{"name":"a","points":[{"t":1,"v":1}]}` + strings.Repeat(" ", maxBody)
	resp, err := http.Post(hs.URL+"/v1/tenants/acme/stations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out errorBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || out.Error.Code != "bad_body" {
		t.Fatalf("status %d code %q, want 400 bad_body", resp.StatusCode, out.Error.Code)
	}
}

// A station without points is refused before anything is written: it would
// be a Station node without a series, which recovery removes.
func TestStationWithoutPointsRejected(t *testing.T) {
	_, hs, _, _ := newTestServer(t, Limits{})
	base := hs.URL
	ingestStation(t, base, "acme", "alpha", "north", []map[string]any{{"t": 0, "v": 4}}, "")
	for _, body := range []map[string]any{
		{"name": "empty", "district": "d", "points": []map[string]any{}},
		{"name": "absent", "district": "d"},
	} {
		code, out, _ := doJSON(t, "POST", base+"/v1/tenants/acme/stations", body, nil)
		if code != http.StatusBadRequest || out["error"].(map[string]any)["code"] != "bad_body" {
			t.Fatalf("%v: status %d body %v, want 400 bad_body", body["name"], code, out)
		}
	}
	code, out, _ := doJSON(t, "GET", base+"/v1/tenants/acme/stats", nil, nil)
	if code != http.StatusOK || out["stations"].(float64) != 1 {
		t.Fatalf("stats after the refused ingests: %d %v, want 1 station", code, out)
	}
}

// stationBody is a station body as the client library sends it: n hourly
// points of a bike-availability count.
func stationBody(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]pointJSON, n)
	for i := range pts {
		pts[i] = pointJSON{T: 1_700_000_000_000 + int64(i)*int64(ts.Hour), V: float64(rng.Intn(40))}
	}
	body, err := json.Marshal(map[string]any{"name": "bench", "district": "north", "points": pts})
	if err != nil {
		panic(err)
	}
	return body
}

// BenchmarkStationIngest is the stations endpoint below HTTP: one year of
// hourly points (8 736) read from the request body, decoded, built into a
// series and ingested through the durable two-store protocol on a
// directory-backed engine.
func BenchmarkStationIngest(b *testing.B) {
	const n = 8736
	body := stationBody(n, 1)
	d, closer, err := (&DirBackend{Root: b.TempDir()}).OpenEngine("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer closer.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/tenants/bench/stations", bytes.NewReader(body))
		raw, err := readBody(r)
		if err != nil {
			b.Fatal(err)
		}
		req, err := parseStation(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.IngestStation(fmt.Sprint(req.Name, i), req.District, req.series()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
}
