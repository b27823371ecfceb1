package server

import (
	"context"
	"errors"
	"math"
	"net/url"
	"strconv"
	"testing"

	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// parseQuerySeeds are the query strings the server tests send to
// /v1/tenants/{t}/query, accepted and rejected alike.
var parseQuerySeeds = []string{
	"name=Q1&station=0&start=0&end=1000",
	"name=Q3&station=0&start=0&end=1000",
	"name=Q3&station=0",
	"name=Q4",
	"name=Q5",
	"name=Q6",
	"name=Q6&k=3",
	"name=Q7&x=0&y=1&bucket=60",
	"name=Q8&station=0",
	"name=downsample&station=0&start=0&end=600&bucket=60&agg=sum",
	"name=Q6&k=-1",
	"name=downsample&station=0&agg=mean&bucket=0",
	"name=downsample&station=0&agg=mean&bucket=-5",
	"name=downsample&station=0&agg=nope",
	"name=Q2&station=0",
	"name=Q99",
	"name=Q1&station=abc",
	"name=Q6&k=x",
	"name=Q4&start=1.5",
	"name=Q4&end=",
	"name=Q7&x=1&y=2&bucket=1h",
	"name=Q7&x=one&y=2",
	"name=Q7&x=1&y=0x2",
	"name=Q2&station=1&below=low",
}

// encodeQuery writes q back as the parameters parseQuery reads for its op.
func encodeQuery(q ttdb.Query) url.Values {
	v := url.Values{}
	v.Set("name", q.Op.String())
	v.Set("station", strconv.FormatInt(int64(q.Station), 10))
	v.Set("start", strconv.FormatInt(int64(q.Start), 10))
	v.Set("end", strconv.FormatInt(int64(q.End), 10))
	v.Set("bucket", strconv.FormatInt(int64(q.Bucket), 10))
	v.Set("k", strconv.Itoa(q.K))
	switch q.Op {
	case ttdb.OpQ2:
		v.Set("below", strconv.FormatFloat(q.Below, 'g', -1, 64))
	case ttdb.OpQ7:
		v.Set("x", strconv.FormatInt(int64(q.Station), 10))
		v.Set("y", strconv.FormatInt(int64(q.Other), 10))
	case ttdb.OpDownsample:
		v.Set("agg", q.Agg.String())
	}
	return v
}

// sameQuery is descriptor equality with NaN thresholds equal to each other.
func sameQuery(a, b ttdb.Query) bool {
	if math.IsNaN(a.Below) && math.IsNaN(b.Below) {
		a.Below, b.Below = 0, 0
	}
	return a == b
}

// fuzzEngine is a small in-memory engine: two stations of three samples
// each, in two districts, joined by a trip.
func fuzzEngine(f *testing.F) *ttdb.Polyglot {
	p := ttdb.NewPolyglot(ts.Hour)
	var ids []ttdb.StationID
	for i, district := range []string{"north", "south"} {
		id, err := p.IngestStation("st"+strconv.Itoa(i), district, ts.FromSamples(ttdb.Metric, 0, 60, []float64{5, float64(i), 7}))
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.AddTrip(ids[0], ids[1], 1); err != nil {
		f.Fatal(err)
	}
	return p
}

// FuzzParseQuery: parseQuery never panics on an arbitrary query string; a
// query it accepts, re-encoded to the parameters its op reads, parses back
// to the same descriptor; and running an accepted query over a small
// in-memory engine returns a result or ErrBadQuery, never a panic.
func FuzzParseQuery(f *testing.F) {
	for _, s := range parseQuerySeeds {
		f.Add(s)
	}
	p := fuzzEngine(f)
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw) // as r.URL.Query(): keep what parsed
		q, err := parseQuery(v)
		if err != nil {
			return
		}
		enc := encodeQuery(q)
		back, err := parseQuery(enc)
		if err != nil || !sameQuery(back, q) {
			t.Fatalf("%q parsed to %+v; re-encoded as %q it parses to %+v, %v", raw, q, enc.Encode(), back, err)
		}
		res, err := p.Exec(context.Background(), q)
		if err != nil && !errors.Is(err, ttdb.ErrBadQuery) {
			t.Fatalf("%q: Exec(%+v) = %v, want a result or ErrBadQuery", raw, q, err)
		}
		if err == nil && res.Op != q.Op {
			t.Fatalf("%q: Exec(%+v) answered op %v", raw, q, res.Op)
		}
	})
}
