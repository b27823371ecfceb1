package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name must return the same handle")
	}

	g := r.Gauge("g")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.High() != 5 {
		t.Fatalf("gauge = (%d, high %d), want (1, 5)", g.Value(), g.High())
	}
	g.Set(10)
	if g.Value() != 10 || g.High() != 10 {
		t.Fatalf("after Set: (%d, high %d), want (10, 10)", g.Value(), g.High())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	tr := r.Tracer()
	c.Inc()
	c.Add(7)
	g.Add(1)
	g.Set(2)
	h.Observe(time.Second)
	sw := h.Start()
	if d := sw.Stop(); d != 0 {
		t.Fatalf("inert stopwatch returned %v, want 0", d)
	}
	sp := tr.Start("root")
	sp.Child("nested").End()
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 || len(r.Snapshot().Durations) != 0 {
		t.Fatal("nil handles must stay at zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.Trace != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	// 90 fast observations, 10 slow: p50 lands in the fast bucket, p99 in
	// the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3 * time.Millisecond)
	}
	st := h.stat()
	if st.Count != 100 {
		t.Fatalf("count = %d, want 100", st.Count)
	}
	if st.MaxNS != int64(3*time.Millisecond) {
		t.Fatalf("max = %d", st.MaxNS)
	}
	if st.P50MS >= 1 {
		t.Fatalf("p50 = %vms, want sub-millisecond", st.P50MS)
	}
	if st.P99MS < 3 {
		t.Fatalf("p99 = %vms, want >= 3ms", st.P99MS)
	}
	if st.MeanMS <= 0 {
		t.Fatalf("mean = %v, want > 0", st.MeanMS)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{999, 0},
		{1000, 0},
		{1999, 0},
		{2000, 1},
		{1 << 62, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestStopwatchRecords(t *testing.T) {
	r := New()
	h := r.Histogram("sw")
	sw := h.Start()
	time.Sleep(time.Millisecond)
	d := sw.Stop()
	if d < time.Millisecond {
		t.Fatalf("stopwatch measured %v, want >= 1ms", d)
	}
	if n := r.Snapshot().Durations["sw"].Count; n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestTracerNestingAndSnapshot(t *testing.T) {
	r := New()
	tr := r.Tracer()
	root := tr.Start("recover")
	child := root.Child("graph.replay")
	child.End()
	grand := root.Child("ts.replay")
	grand.End()
	root.End()

	snap := tr.Snapshot()
	if snap == nil {
		t.Fatal("snapshot nil after recording spans")
	}
	if snap.Totals["recover"].Count != 1 || snap.Totals["graph.replay"].Count != 1 {
		t.Fatalf("totals = %+v", snap.Totals)
	}
	if len(snap.Recent) != 3 {
		t.Fatalf("recent = %d records, want 3", len(snap.Recent))
	}
	// Children must link to the root's id.
	var rootID uint64
	for _, rec := range snap.Recent {
		if rec.Name == "recover" {
			rootID = rec.ID
		}
	}
	for _, rec := range snap.Recent {
		if rec.Name != "recover" && rec.Parent != rootID {
			t.Fatalf("span %q parent = %d, want %d", rec.Name, rec.Parent, rootID)
		}
	}
}

func TestTracerRingBounded(t *testing.T) {
	r := New()
	tr := r.Tracer()
	for i := 0; i < maxRecentSpans*2; i++ {
		tr.Start(fmt.Sprintf("s%d", i%4)).End()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != maxRecentSpans {
		t.Fatalf("ring holds %d, want %d", len(snap.Recent), maxRecentSpans)
	}
	var total int64
	for _, tot := range snap.Totals {
		total += tot.Count
	}
	if total != maxRecentSpans*2 {
		t.Fatalf("totals count %d spans, want %d", total, maxRecentSpans*2)
	}
	// Ring is in completion order: ids strictly increase.
	for i := 1; i < len(snap.Recent); i++ {
		if snap.Recent[i].ID <= snap.Recent[i-1].ID {
			t.Fatalf("ring out of order at %d: %d then %d", i, snap.Recent[i-1].ID, snap.Recent[i].ID)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("wal.appends").Add(12)
	r.Gauge("workers.active").Set(4)
	r.Histogram("q1").Observe(5 * time.Microsecond)
	sp := r.Tracer().Start("recover")
	sp.Child("journal").End()
	sp.End()

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["wal.appends"] != 12 {
		t.Fatalf("counter lost in round trip: %+v", back.Counters)
	}
	if back.Gauges["workers.active"].Value != 4 {
		t.Fatalf("gauge lost: %+v", back.Gauges)
	}
	if back.Durations["q1"].Count != 1 {
		t.Fatalf("histogram lost: %+v", back.Durations)
	}
	if back.Trace == nil || back.Trace.Totals["recover"].Count != 1 {
		t.Fatalf("trace lost: %+v", back.Trace)
	}
}

func TestConcurrentUpdatesRaceClean(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tr := r.Tracer()
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(time.Duration(i) * time.Microsecond)
				sp := tr.Start("w")
				sp.Child("inner").End()
				sp.End()
			}
		}()
	}
	// Snapshot concurrently with the writers.
	for i := 0; i < 20; i++ {
		if _, err := json.Marshal(r.Snapshot()); err != nil {
			t.Fatalf("snapshot under load: %v", err)
		}
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if n := r.Snapshot().Durations["h"].Count; n != workers*per {
		t.Fatalf("histogram count = %d, want %d", n, workers*per)
	}
	if g.Value() != 0 || g.High() < 1 {
		t.Fatalf("gauge = (%d, high %d)", g.Value(), g.High())
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := New()
	r.Counter("hits").Add(3)
	ln, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/debug/obs")), &snap); err != nil {
		t.Fatalf("/debug/obs not JSON: %v", err)
	}
	if snap.Counters["hits"] != 3 {
		t.Fatalf("/debug/obs counters = %+v", snap.Counters)
	}
	if !strings.Contains(get("/debug/vars"), "hygraph_obs") {
		t.Fatal("/debug/vars missing hygraph_obs")
	}
	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Fatal("/debug/pprof/ missing profile index")
	}

	// Graceful stop: Shutdown returns only after the serve loop exits, and
	// the port no longer accepts connections.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ln.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(base + "/debug/obs"); err == nil {
		t.Fatal("debug server still serving after Shutdown")
	}
}
