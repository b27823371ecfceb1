package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hygraph/internal/obs"
)

// newPartitionedServer builds a Server whose tenants are partitioned over
// the shared MemBackend — partitions <name>.pI hold the per-partition WALs,
// so a second server over the same backend is the reopen path.
func newPartitionedServer(t *testing.T, be *MemBackend, parts int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Backend:        be,
		Partitions:     parts,
		Obs:            obs.New(),
		DefaultTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

// TestPartitionedTenantServesAndReopens drives the full service surface
// (ingest, trips, Q1–Q8, HyQL, stats) against a 3-partition tenant, then
// shuts the server down and reopens the same tenant from the retained
// per-partition WALs — the answers must survive the round-trip.
func TestPartitionedTenantServesAndReopens(t *testing.T) {
	be := NewMemBackend()
	s1, hs1 := newPartitionedServer(t, be, 3)
	base := hs1.URL

	pts := func(base float64) []map[string]any {
		var p []map[string]any
		for i := 0; i < 8; i++ {
			p = append(p, map[string]any{"t": i * 60, "v": base + float64(i%4)})
		}
		return p
	}
	var ids []float64
	for i := 0; i < 6; i++ {
		ids = append(ids, ingestStation(t, base, "acme", fmt.Sprintf("st-%d", i),
			fmt.Sprintf("d-%d", i%2), pts(float64(2*i)), ""))
	}
	for i := 0; i < len(ids); i++ {
		code, body, _ := doJSON(t, "POST", base+"/v1/tenants/acme/trips",
			map[string]any{"from": ids[i], "to": ids[(i+1)%len(ids)], "count": i + 1}, nil)
		if code != http.StatusOK {
			t.Fatalf("trip %d: %d %v", i, code, body)
		}
	}

	snapshot := func(hsBase string) map[string]any {
		out := map[string]any{}
		for _, q := range []string{
			"query?name=Q3&station=" + fmt.Sprint(ids[0]),
			"query?name=Q4",
			"query?name=Q5",
			"query?name=Q6&k=3",
			"query?name=Q8&station=" + fmt.Sprint(ids[0]),
		} {
			code, body, _ := doJSON(t, "GET", hsBase+"/v1/tenants/acme/"+q, nil, nil)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %v", q, code, body)
			}
			out[q] = fmt.Sprint(body["result"])
		}
		code, body, _ := doJSON(t, "POST", hsBase+"/v1/tenants/acme/hyql",
			map[string]any{"query": `MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.name, ts.mean(a, 0, 100000000) ORDER BY st.name`}, nil)
		if code != http.StatusOK {
			t.Fatalf("hyql: %d %v", code, body)
		}
		out["hyql"] = fmt.Sprint(body["rows"])
		code, body, _ = doJSON(t, "GET", hsBase+"/v1/tenants/acme/stats", nil, nil)
		if code != http.StatusOK {
			t.Fatalf("stats: %d %v", code, body)
		}
		if got := body["stations"].(float64); got != float64(len(ids)) {
			t.Fatalf("stats.stations = %v, want %d (boundary replicas must not count)", got, len(ids))
		}
		return out
	}
	before := snapshot(base)

	// Graceful stop flushes every partition's WAL group writers.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	hs1.Close()

	// Reopen over the same retained logs: Attach rebuilds the placement map
	// from the gid tags, and every answer must be identical.
	_, hs2 := newPartitionedServer(t, be, 3)
	after := snapshot(hs2.URL)
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("%s changed across reopen:\n before %v\n after  %v", k, v, after[k])
		}
	}

	// The partitions really exist in the backend (the unit a multi-process
	// deployment would split out).
	for i := 0; i < 3; i++ {
		if _, _, err := be.Recover(fmt.Sprintf("acme.p%d", i)); err != nil {
			t.Fatalf("partition missing: %v", err)
		}
	}
}

// TestPartitionedDownsampleReadYourWrites checks read-your-writes aggregates
// through the scatter-gather coordinator: AppendPoint routes to the owner
// partition and writes the point into its store before acknowledging, and a
// downsample folds its window from that store, so the next downsample read
// through the same coordinator sees the write.
func TestPartitionedDownsampleReadYourWrites(t *testing.T) {
	be := NewMemBackend()
	_, hs := newPartitionedServer(t, be, 3)
	base := hs.URL

	var ids []float64
	for i := 0; i < 4; i++ {
		pts := []map[string]any{{"t": 0, "v": float64(i)}, {"t": 30, "v": float64(i + 2)}}
		ids = append(ids, ingestStation(t, base, "acme", fmt.Sprintf("st-%d", i), "d", pts, ""))
	}
	ds := func(id float64) []any {
		code, body, _ := doJSON(t, "GET",
			fmt.Sprintf("%s/v1/tenants/acme/query?name=downsample&station=%.0f&start=0&end=600&bucket=60&agg=sum", base, id), nil, nil)
		if code != http.StatusOK {
			t.Fatalf("downsample: %d %v", code, body)
		}
		return body["result"].([]any)
	}
	for i, id := range ids {
		buckets := ds(id) // warm the owner's cache
		if len(buckets) != 1 {
			t.Fatalf("station %d: buckets = %v, want 1", i, buckets)
		}
		if got := buckets[0].(map[string]any)["V"].(float64); got != float64(2*i+2) {
			t.Fatalf("station %d: sum = %v, want %d", i, got, 2*i+2)
		}
		code, body, _ := doJSON(t, "POST", base+"/v1/tenants/acme/points",
			map[string]any{"station": id, "t": 45, "v": 10}, nil)
		if code != http.StatusOK {
			t.Fatalf("point: %d %v", code, body)
		}
		buckets = ds(id)
		if got := buckets[0].(map[string]any)["V"].(float64); got != float64(2*i+12) {
			t.Fatalf("station %d post-append: sum = %v, want %d", i, got, 2*i+12)
		}
	}
}
