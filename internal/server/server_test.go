package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
)

// newTestServer builds a Server over a MemBackend with the given limits and
// an httptest front end. Callers get the base URL, the backend (for recovery
// checks) and the registry (for counter assertions).
func newTestServer(t *testing.T, l Limits) (*Server, *httptest.Server, *MemBackend, *obs.Registry) {
	t.Helper()
	be := NewMemBackend()
	reg := obs.New()
	s, err := New(Config{Limits: l, Backend: be, Obs: reg, DefaultTimeout: 5 * time.Second})
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
	return s, hs, be, reg
}

// doJSON posts (or gets) and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any, hdr map[string]string) (int, map[string]any, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, out, resp.Header
}

// ingestStation is the test-side station ingest helper.
func ingestStation(t *testing.T, base, tenant, name, district string, pts []map[string]any, key string) float64 {
	t.Helper()
	hdr := map[string]string{}
	if key != "" {
		hdr["X-Idempotency-Key"] = key
	}
	code, body, _ := doJSON(t, "POST", base+"/v1/tenants/"+tenant+"/stations",
		map[string]any{"name": name, "district": district, "points": pts}, hdr)
	if code != http.StatusOK {
		t.Fatalf("ingest %s: status %d body %v", name, code, body)
	}
	return body["station"].(float64)
}

func TestServeEndToEnd(t *testing.T) {
	_, hs, _, _ := newTestServer(t, Limits{})
	base := hs.URL

	pts := []map[string]any{{"t": 0, "v": 4}, {"t": 60, "v": 6}, {"t": 120, "v": 8}}
	a := ingestStation(t, base, "acme", "alpha", "north", pts, "")
	b := ingestStation(t, base, "acme", "beta", "south", pts, "")

	code, body, _ := doJSON(t, "POST", base+"/v1/tenants/acme/trips",
		map[string]any{"from": a, "to": b, "count": 7}, nil)
	if code != http.StatusOK {
		t.Fatalf("trip: %d %v", code, body)
	}
	code, body, _ = doJSON(t, "POST", base+"/v1/tenants/acme/points",
		map[string]any{"station": a, "t": 180, "v": 10}, nil)
	if code != http.StatusOK {
		t.Fatalf("point: %d %v", code, body)
	}

	// Q3 mean over station a: (4+6+8+10)/4 = 7.
	code, body, _ = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/tenants/acme/query?name=Q3&station=%.0f&start=0&end=1000", base, a), nil, nil)
	if code != http.StatusOK {
		t.Fatalf("Q3: %d %v", code, body)
	}
	if got := body["result"].(float64); got != 7 {
		t.Fatalf("Q3 mean = %v, want 7", got)
	}

	// Q8 neighbors of a must include b.
	code, body, _ = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/tenants/acme/query?name=Q8&station=%.0f", base, a), nil, nil)
	if code != http.StatusOK {
		t.Fatalf("Q8: %d %v", code, body)
	}
	res := body["result"].(map[string]any)
	if _, ok := res[fmt.Sprintf("%.0f", b)]; !ok {
		t.Fatalf("Q8 result %v misses neighbor %v", res, b)
	}

	// Every remaining query answers 200.
	for _, q := range []string{"Q1", "Q4", "Q5", "Q6"} {
		code, body, _ = doJSON(t, "GET",
			fmt.Sprintf("%s/v1/tenants/acme/query?name=%s&station=%.0f", base, q, a), nil, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %v", q, code, body)
		}
	}
	code, body, _ = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/tenants/acme/query?name=Q2&station=%.0f&below=7", base, a), nil, nil)
	if code != http.StatusOK {
		t.Fatalf("Q2: %d %v", code, body)
	}
	code, body, _ = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/tenants/acme/query?name=Q7&x=%.0f&y=%.0f&bucket=60", base, a, b), nil, nil)
	if code != http.StatusOK {
		t.Fatalf("Q7: %d %v", code, body)
	}

	// HyQL over the materialized view.
	code, body, _ = doJSON(t, "POST", base+"/v1/tenants/acme/hyql",
		map[string]any{"query": "MATCH (s:Station) WHERE s.district = 'north' RETURN s.name", "at": 0}, nil)
	if code != http.StatusOK {
		t.Fatalf("hyql: %d %v", code, body)
	}
	rows := body["rows"].([]any)
	if len(rows) != 1 || !strings.Contains(fmt.Sprint(rows[0]), "alpha") {
		t.Fatalf("hyql rows = %v, want one row containing alpha", rows)
	}

	// Stats reflect both stations.
	code, body, _ = doJSON(t, "GET", base+"/v1/tenants/acme/stats", nil, nil)
	if code != http.StatusOK || body["stations"].(float64) != 2 {
		t.Fatalf("stats: %d %v", code, body)
	}

	// Unknown query name and invalid tenant are client errors.
	code, _, _ = doJSON(t, "GET", base+"/v1/tenants/acme/query?name=Q99", nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("Q99 status = %d, want 400", code)
	}
	code, _, _ = doJSON(t, "GET", base+"/v1/tenants/..%2Fetc/query?name=Q1", nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad tenant status = %d, want 400", code)
	}
}

// TestDownsampleReadYourWrites checks the windowed-aggregate endpoint sees
// an acknowledged append immediately: the engine's continuous-aggregate
// cache is patched in place before AppendPoint returns, so the very next
// read reflects the write without a recompute.
func TestDownsampleReadYourWrites(t *testing.T) {
	_, hs, _, _ := newTestServer(t, Limits{})
	base := hs.URL

	pts := []map[string]any{{"t": 0, "v": 4}, {"t": 10, "v": 6}, {"t": 70, "v": 8}}
	a := ingestStation(t, base, "acme", "alpha", "north", pts, "")

	ds := func() []any {
		code, body, _ := doJSON(t, "GET",
			fmt.Sprintf("%s/v1/tenants/acme/query?name=downsample&station=%.0f&start=0&end=600&bucket=60&agg=mean", base, a), nil, nil)
		if code != http.StatusOK {
			t.Fatalf("downsample: %d %v", code, body)
		}
		return body["result"].([]any)
	}
	buckets := ds()
	if len(buckets) != 2 {
		t.Fatalf("buckets = %v, want 2", buckets)
	}
	first := buckets[0].(map[string]any)
	if first["T"].(float64) != 0 || first["V"].(float64) != 5 {
		t.Fatalf("bucket 0 = %v, want mean 5 at t=0", first)
	}

	// Append into bucket 0 (acknowledged), then read again: mean over
	// {4, 6, 20} must be visible immediately.
	code, body, _ := doJSON(t, "POST", base+"/v1/tenants/acme/points",
		map[string]any{"station": a, "t": 20, "v": 20}, nil)
	if code != http.StatusOK {
		t.Fatalf("point: %d %v", code, body)
	}
	buckets = ds()
	first = buckets[0].(map[string]any)
	if got := first["V"].(float64); got != 10 {
		t.Fatalf("post-append bucket 0 mean = %v, want 10", got)
	}

	// Bad aggregate names and non-positive buckets are client errors.
	code, _, _ = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/tenants/acme/query?name=downsample&station=%.0f&bucket=60&agg=nope", base, a), nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad agg status = %d, want 400", code)
	}
	code, _, _ = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/tenants/acme/query?name=downsample&station=%.0f&bucket=0&agg=mean", base, a), nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("zero bucket status = %d, want 400", code)
	}
}

func TestIdempotentStationIngest(t *testing.T) {
	_, hs, _, _ := newTestServer(t, Limits{})
	base := hs.URL
	pts := []map[string]any{{"t": 0, "v": 1}}
	id1 := ingestStation(t, base, "acme", "gamma", "east", pts, "key-1")
	id2 := ingestStation(t, base, "acme", "gamma", "east", pts, "key-1")
	if id1 != id2 {
		t.Fatalf("same idempotency key allocated two stations: %v vs %v", id1, id2)
	}
	code, body, _ := doJSON(t, "GET", base+"/v1/tenants/acme/stats", nil, nil)
	if code != http.StatusOK || body["stations"].(float64) != 1 {
		t.Fatalf("stats after duplicate-keyed ingest: %d %v", code, body)
	}
	// A different key is a different station.
	id3 := ingestStation(t, base, "acme", "gamma2", "east", pts, "key-2")
	if id3 == id1 {
		t.Fatalf("distinct keys shared a station id")
	}
}

func TestQueueFullShedsWithRetryAfter(t *testing.T) {
	defer faults.Reset()
	_, hs, _, reg := newTestServer(t, Limits{MaxConcurrent: 1, MaxQueue: 1, TenantConcurrent: 8})
	base := hs.URL
	ingestStation(t, base, "acme", "s", "d", []map[string]any{{"t": 0, "v": 1}}, "")

	// Stall every handler long enough to pile up: 1 executing + 1 queued +
	// N shed.
	faults.Enable(FaultHandler, faults.Spec{Delay: 300 * time.Millisecond, Nth: 1 << 30})
	defer faults.Disable(FaultHandler)

	const n = 6
	codes := make(chan int, n)
	hdrs := make(chan http.Header, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/v1/tenants/acme/query?name=Q4")
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
			hdrs <- resp.Header
		}()
	}
	wg.Wait()
	close(codes)
	close(hdrs)

	var ok, shed int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok != 2 || shed != n-2 {
		t.Fatalf("ok=%d shed=%d, want 2 executed (1 running + 1 queued) and %d shed", ok, shed, n-2)
	}
	sawRetry := false
	for h := range hdrs {
		if h.Get("Retry-After") != "" && h.Get("X-Retry-After-MS") != "" {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatalf("no shed response carried Retry-After headers")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["server.shed.queue_full"]; got != int64(n-2) {
		t.Fatalf("shed.queue_full = %d, want %d", got, n-2)
	}
	// Identity: requests = ok responses + sheds (ingest ran before arming).
	req := snap.Counters["server.requests"]
	acc := snap.Counters["server.resp.ok"] + snap.Counters["server.shed.queue_full"]
	if req != acc {
		t.Fatalf("request accounting broken: requests=%d ok+shed=%d", req, acc)
	}
}

func TestTenantRateLimitSheds(t *testing.T) {
	_, hs, _, reg := newTestServer(t, Limits{TenantRate: 0.001, TenantBurst: 1})
	base := hs.URL
	// First request consumes the lone token.
	code, _, _ := doJSON(t, "GET", base+"/v1/tenants/acme/stats", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	code, body, hdr := doJSON(t, "GET", base+"/v1/tenants/acme/stats", nil, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d %v, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	errObj := body["error"].(map[string]any)
	if errObj["code"] != "rate_limited" {
		t.Fatalf("shed code = %v, want rate_limited", errObj["code"])
	}
	if reg.Snapshot().Counters["server.shed.rate_limited"] != 1 {
		t.Fatalf("rate_limited counter not incremented")
	}
	// An unrelated tenant still flows: the bucket is per tenant.
	code, _, _ = doJSON(t, "GET", base+"/v1/tenants/other/stats", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("other tenant was rate limited too: %d", code)
	}
}

func TestTenantConcurrencyCapSheds(t *testing.T) {
	defer faults.Reset()
	_, hs, _, reg := newTestServer(t, Limits{MaxConcurrent: 8, MaxQueue: 8, TenantConcurrent: 1})
	base := hs.URL
	ingestStation(t, base, "acme", "s", "d", []map[string]any{{"t": 0, "v": 1}}, "")

	faults.Enable(FaultHandler, faults.Spec{Delay: 200 * time.Millisecond, Nth: 1 << 30})
	defer faults.Disable(FaultHandler)

	results := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/v1/tenants/acme/query?name=Q4")
			if err != nil {
				results <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(results)
	var ok, busy int
	for c := range results {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			busy++
		}
	}
	if ok != 1 || busy != 2 {
		t.Fatalf("ok=%d busy=%d, want 1 executed and 2 tenant_busy", ok, busy)
	}
	if reg.Snapshot().Counters["server.shed.tenant_busy"] != 2 {
		t.Fatalf("tenant_busy counter = %d, want 2", reg.Snapshot().Counters["server.shed.tenant_busy"])
	}
}

func TestDeadlineExceeded(t *testing.T) {
	defer faults.Reset()
	_, hs, _, reg := newTestServer(t, Limits{})
	base := hs.URL
	ingestStation(t, base, "acme", "s", "d", []map[string]any{{"t": 0, "v": 1}}, "")

	// The injected handler latency dwarfs the 20ms budget; CheckCtx must
	// give up at the deadline, not sleep through.
	faults.Enable(FaultHandler, faults.Spec{Delay: 2 * time.Second, Nth: 1 << 30})
	defer faults.Disable(FaultHandler)

	t0 := time.Now()
	code, body, _ := doJSON(t, "GET", base+"/v1/tenants/acme/query?name=Q4", nil,
		map[string]string{"X-Timeout-MS": "20"})
	elapsed := time.Since(t0)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d %v, want 504", code, body)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline not honored: request took %v with a 20ms budget", elapsed)
	}
	if reg.Snapshot().Counters["server.deadline_miss"] != 1 {
		t.Fatalf("deadline_miss not counted")
	}
}

func TestDegradedQueryReturnsPartialResult(t *testing.T) {
	defer faults.Reset()
	_, hs, _, _ := newTestServer(t, Limits{})
	base := hs.URL
	s1 := ingestStation(t, base, "acme", "s1", "north", []map[string]any{{"t": 0, "v": 1}}, "")
	ingestStation(t, base, "acme", "s2", "south", []map[string]any{{"t": 0, "v": 2}}, "")

	// A permanent (non-transient) TS failure on append latches degradation.
	faults.Enable(ttdb.FaultIngestTS, faults.Spec{Err: errors.New("disk gone")})
	code, _, _ := doJSON(t, "POST", base+"/v1/tenants/acme/points",
		map[string]any{"station": s1, "t": 60, "v": 3}, nil)
	faults.Disable(ttdb.FaultIngestTS)
	if code != http.StatusInternalServerError {
		t.Fatalf("append under TS fault: %d, want 500", code)
	}

	code, body, _ := doJSON(t, "GET", base+"/v1/tenants/acme/query?name=Q5", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("degraded Q5: %d %v", code, body)
	}
	if body["degraded"] != true {
		t.Fatalf("degraded flag missing: %v", body)
	}
	res := body["result"].(map[string]any)
	if _, ok := res["north"]; !ok {
		t.Fatalf("degraded Q5 lost the district partition: %v", res)
	}
}

func TestAcceptFaultAndResponseDrop(t *testing.T) {
	defer faults.Reset()
	_, hs, _, reg := newTestServer(t, Limits{})
	base := hs.URL

	faults.Enable(FaultAccept, faults.Spec{Count: 1})
	code, _, _ := doJSON(t, "GET", base+"/v1/tenants/acme/stats", nil, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("accept fault: %d, want 500", code)
	}
	faults.Disable(FaultAccept)

	// A dedicated non-keep-alive client: Go's transport transparently
	// retries idempotent GETs that die on a REUSED connection, which would
	// hide the drop.
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	faults.Enable(FaultDropResponse, faults.Spec{Count: 1})
	resp, err := c.Get(base + "/v1/tenants/acme/stats")
	faults.Disable(FaultDropResponse)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Fatalf("dropped response still reached the client: %d", resp.StatusCode)
	}
	snap := reg.Snapshot()
	if snap.Counters["server.fault.accept"] != 1 || snap.Counters["server.fault.response_drop"] != 1 {
		t.Fatalf("fault counters: accept=%d drop=%d, want 1/1",
			snap.Counters["server.fault.accept"], snap.Counters["server.fault.response_drop"])
	}
}

func TestGracefulShutdownFlushesAndSheds(t *testing.T) {
	s, hs, be, reg := newTestServer(t, Limits{})
	base := hs.URL
	id := ingestStation(t, base, "acme", "alpha", "north", []map[string]any{{"t": 0, "v": 5}}, "")
	code, _, _ := doJSON(t, "POST", base+"/v1/tenants/acme/points",
		map[string]any{"station": id, "t": 60, "v": 6}, nil)
	if code != http.StatusOK {
		t.Fatalf("point: %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !s.Draining() {
		t.Fatalf("server not draining after Shutdown")
	}

	// New requests are shed with the draining reason.
	code, body, hdr := doJSON(t, "GET", base+"/v1/tenants/acme/stats", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: %d %v, want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("draining shed without Retry-After")
	}
	if reg.Snapshot().Counters["server.shed.draining"] == 0 {
		t.Fatalf("draining shed not counted")
	}

	// Health reports draining without admission.
	code, body, _ = doJSON(t, "GET", base+"/v1/health", nil, nil)
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("health during drain: %d %v", code, body)
	}

	// Everything acknowledged is recoverable from the flushed logs.
	eng, rec, err := be.Recover("acme")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.RolledBack != 0 {
		t.Fatalf("clean shutdown rolled back %d txns", rec.RolledBack)
	}
	if got := len(eng.G.NodesByLabel("Station")); got != 1 {
		t.Fatalf("recovered %d stations, want 1", got)
	}
	pts, err := eng.Exec(context.Background(), ttdb.Q1(ttdb.StationID(id), 0, 1000))
	if err != nil || len(pts.Points) != 2 {
		t.Fatalf("recovered series = %v (%v), want the 2 acknowledged points", pts.Points, err)
	}
}

func TestBucketRefill(t *testing.T) {
	b := newBucket(10, 2) // 10 tokens/s, burst 2
	now := time.Unix(0, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatalf("empty bucket granted a token")
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("refill hint = %v, want ~100ms", wait)
	}
	if ok, _ := b.take(now.Add(wait + time.Millisecond)); !ok {
		t.Fatalf("token not granted after the hinted wait")
	}
	if nil != newBucket(0, 5) {
		t.Fatalf("rate 0 must mean unlimited (nil bucket)")
	}
}
