package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"hygraph/internal/storage/ttdb"
)

// queryTenant is one served tenant holding two constant-valued stations a and
// b joined by a trip.
type queryTenant struct {
	base string
	s    *Server
	a, b float64
}

// queryTenants serves the same data from a single-engine tenant and from a
// 3-partition one.
func queryTenants(t *testing.T) []queryTenant {
	t.Helper()
	single, hsSingle, _, _ := newTestServer(t, Limits{})
	parted, hsParted := newPartitionedServer(t, NewMemBackend(), 3)
	out := []queryTenant{{base: hsSingle.URL, s: single}, {base: hsParted.URL, s: parted}}
	for i := range out {
		qt := &out[i]
		pts := []map[string]any{{"t": 0, "v": 5}, {"t": 60, "v": 5}, {"t": 120, "v": 5}}
		qt.a = ingestStation(t, qt.base, "acme", "alpha", "north", pts, "")
		qt.b = ingestStation(t, qt.base, "acme", "beta", "south", pts, "")
		if code, body, _ := doJSON(t, "POST", qt.base+"/v1/tenants/acme/trips",
			map[string]any{"from": qt.a, "to": qt.b, "count": 1}, nil); code != http.StatusOK {
			t.Fatalf("trip: %d %v", code, body)
		}
	}
	return out
}

// A descriptor no layer will run is a 400 bad_query, never a handler panic:
// a negative k used to crash the single-engine ranking.
func TestQueryRejectsBadDescriptors(t *testing.T) {
	for _, qt := range queryTenants(t) {
		base := qt.base
		for _, q := range []string{
			"name=Q6&k=-1",
			"name=downsample&station=0&agg=mean&bucket=0",
			"name=downsample&station=0&agg=mean&bucket=-5",
			"name=downsample&station=0&agg=nope",
			"name=Q2&station=0",
			"name=Q99",
			"",
		} {
			code, body, _ := doJSON(t, "GET", base+"/v1/tenants/acme/query?"+q, nil, nil)
			if code != http.StatusBadRequest || fmt.Sprint(body["error"].(map[string]any)["code"]) != "bad_query" {
				t.Errorf("%s %q: %d %v, want 400 bad_query", base, q, code, body)
			}
		}
	}
}

// A numeric parameter that is present but malformed is refused by name; it
// used to be answered silently with the parameter's default. Absent
// parameters still take their defaults.
func TestQueryRejectsMalformedParameters(t *testing.T) {
	for _, qt := range queryTenants(t) {
		base := qt.base
		for param, q := range map[string]string{
			"station": "name=Q1&station=abc",
			"k":       "name=Q6&k=x",
			"start":   "name=Q4&start=1.5",
			"end":     "name=Q4&end=",
			"bucket":  "name=Q7&x=1&y=2&bucket=1h",
			"x":       "name=Q7&x=one&y=2",
			"y":       "name=Q7&x=1&y=0x2",
			"below":   "name=Q2&station=1&below=low",
		} {
			code, body, _ := doJSON(t, "GET", base+"/v1/tenants/acme/query?"+q, nil, nil)
			if param == "end" { // present but empty reads as absent
				if code != http.StatusOK {
					t.Errorf("%s %q: %d %v, want 200", base, q, code, body)
				}
				continue
			}
			if code != http.StatusBadRequest {
				t.Errorf("%s %q: %d %v, want 400", base, q, code, body)
				continue
			}
			e := body["error"].(map[string]any)
			if e["code"] != "bad_query" || !strings.Contains(fmt.Sprint(e["message"]), param) {
				t.Errorf("%s %q: error %v does not name %s", base, q, e, param)
			}
		}
		// Defaults: k=3 ranks both stations, an open window covers every sample.
		code, body, _ := doJSON(t, "GET", base+"/v1/tenants/acme/query?name=Q6", nil, nil)
		if code != http.StatusOK || len(body["result"].([]any)) != 2 {
			t.Errorf("%s Q6 with defaults: %d %v", base, code, body)
		}
	}
}

// A non-finite answer is a 200 whose result is null; it used to be a 200
// with an empty body, because the encoder refused NaN after the header went
// out.
func TestQueryNonFiniteResultsAreNull(t *testing.T) {
	for _, qt := range queryTenants(t) {
		base, a := qt.base, qt.a
		null := func(q string) map[string]any {
			t.Helper()
			code, body, _ := doJSON(t, "GET", base+"/v1/tenants/acme/query?"+q, nil, nil)
			if _, present := body["result"]; code != http.StatusOK || !present || body["query"] == nil {
				t.Fatalf("%s %q: %d %v, want 200 with a result", base, q, code, body)
			}
			return body
		}
		// Both series are constant: Pearson's r is 0/0.
		for _, bucket := range []int{60, 0} {
			q := fmt.Sprintf("name=Q7&x=%.0f&y=%.0f&bucket=%d", qt.a, qt.b, bucket)
			if body := null(q); body["result"] != nil {
				t.Errorf("%s %q: result %v, want null", base, q, body["result"])
			}
		}
		// JSON cannot carry NaN in, so the sample arrives in process.
		ten, err := qt.s.tenant("acme")
		if err != nil {
			t.Fatal(err)
		}
		if err := ten.db.AppendPoint(ttdb.StationID(a), 180, math.NaN()); err != nil {
			t.Fatal(err)
		}
		if body := null(fmt.Sprintf("name=Q3&station=%.0f", a)); body["result"] != nil {
			t.Errorf("%s Q3 over a NaN sample: %v, want null", base, body["result"])
		}
		means := null("name=Q4")["result"].(map[string]any)
		if v, ok := means[fmt.Sprintf("%.0f", a)]; !ok || v != nil || len(means) != 2 {
			t.Errorf("%s Q4 over a NaN sample: %v, want null for station %.0f beside a finite mean", base, means, a)
		}
		for st, v := range means {
			if st != fmt.Sprintf("%.0f", a) && v != 5.0 {
				t.Errorf("%s Q4: finite station %s = %v, want 5", base, st, v)
			}
		}
	}
}

// Whatever the encoder still refuses is a 500 encode_failed written whole.
func TestMarshalFailureIsA500(t *testing.T) {
	status, buf := marshal(http.StatusOK, map[string]any{"v": math.Inf(1)})
	if status != http.StatusInternalServerError || !strings.Contains(string(buf), `"code":"encode_failed"`) || !strings.HasSuffix(string(buf), "\n") {
		t.Fatalf("marshal of an unencodable body: %d %q", status, buf)
	}
}

// The hand-written query envelope is what encoding/json writes for the same
// map, degraded or not.
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	res := ttdb.Result{Op: ttdb.OpQ5, Names: []string{"north", "a<b"}, Vals: []float64{1.5, 0}}
	for _, degraded := range []bool{false, true} {
		want := map[string]any{"query": "Q5", "result": res}
		if degraded {
			want["degraded"] = true
		}
		wantStatus, wantBuf := marshal(http.StatusOK, want)
		status, buf := marshal(http.StatusOK, queryBody(ttdb.OpQ5, res, degraded))
		if status != wantStatus || string(buf) != string(wantBuf) {
			t.Errorf("degraded=%v: %d %q, want %d %q", degraded, status, buf, wantStatus, wantBuf)
		}
	}
}
