package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/server/client"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// The chaos hammer: many retrying clients against a small-limit server with
// fault points firing on the accept path, the handler path, the response
// path and the storage layer — then a graceful stop and a recovery from the
// surviving WAL bytes. It proves the headline robustness claims:
//
//  1. no acknowledged write is lost (recovery check),
//  2. no deadlock and no goroutine leak,
//  3. gauges stay inside the configured bounds (bounded memory),
//  4. every request is accounted exactly once (requests = responses+drops),
//  5. client-observed sheds reconcile with the server's shed counters.

// ackPoint is one client-acknowledged sample. Station ids are per-tenant
// (each tenant is its own engine), so the tenant is part of the identity.
type ackPoint struct {
	tenant  string
	station uint32
	t       int64
	v       float64
}

func TestChaosHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos hammer is a long test")
	}
	defer faults.Reset()
	faults.Seed(20260808)

	before := runtime.NumGoroutine()

	be := NewMemBackend()
	reg := obs.New()
	limits := Limits{MaxConcurrent: 4, MaxQueue: 4, TenantConcurrent: 4}
	s, err := New(Config{Limits: limits, Backend: be, Obs: reg, DefaultTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())

	// Fault schedule: rare accept failures and torn responses, occasional
	// transient storage errors (retried inside the engine's RetryPolicy),
	// and a little handler latency to force real queueing. All
	// probabilistic draws are seeded — the schedule is reproducible.
	faults.Enable(FaultAccept, faults.Spec{P: 0.02})
	faults.Enable(FaultDropResponse, faults.Spec{P: 0.02})
	faults.Enable(FaultHandler, faults.Spec{Delay: 2 * time.Millisecond, Nth: 1 << 30})
	faults.Enable(ttdb.FaultIngestTS, faults.Spec{P: 0.05, Transient: true})
	faults.Enable(ttdb.FaultIngestGraph, faults.Spec{P: 0.05, Transient: true})

	const (
		workers = 8
		ops     = 40
	)
	var (
		mu          sync.Mutex
		ackStations = map[string]uint32{} // acknowledged name -> id
		ackPoints   []ackPoint
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenantName := fmt.Sprintf("t%d", w%2) // two tenants share the server
			cl, err := client.New(client.Config{
				Base:        hs.URL,
				MaxAttempts: 6,
				BaseDelay:   time.Millisecond,
				MaxDelay:    20 * time.Millisecond,
				Seed:        int64(w + 1),
			})
			if err != nil {
				t.Errorf("client.New: %v", err)
				return
			}
			ctx := context.Background()
			var myStation uint32
			haveStation := false
			for i := 0; i < ops; i++ {
				switch i % 4 {
				case 0: // keyed station ingest — retried safely
					name := fmt.Sprintf("w%d-s%d", w, i)
					key := "idem-" + name
					id, err := cl.IngestStation(ctx, tenantName, name, "d", []client.Point{{T: 0, V: 1}}, key)
					if err == nil {
						myStation, haveStation = id, true
						mu.Lock()
						ackStations[tenantName+"/"+name] = id
						mu.Unlock()
					}
				case 1: // idempotent point append
					if haveStation {
						tm := int64(60 * (i + 1))
						v := float64(w*100 + i)
						if err := cl.AppendPoint(ctx, tenantName, myStation, tm, v); err == nil {
							mu.Lock()
							ackPoints = append(ackPoints, ackPoint{tenantName, myStation, tm, v})
							mu.Unlock()
						}
					}
				case 2: // reads across the query surface
					q := []string{"Q1", "Q3", "Q4", "Q5", "Q6", "Q8"}[i%6]
					params := url.Values{"station": {fmt.Sprint(myStation)}}
					_, _ = cl.Query(ctx, tenantName, q, params)
				case 3: // trips + an occasional short-deadline query
					if haveStation {
						_ = cl.AddTrip(ctx, tenantName, myStation, myStation, 1)
					}
					if i%8 == 3 {
						short, err := client.New(client.Config{
							Base: hs.URL, MaxAttempts: 1, Timeout: time.Millisecond, Seed: int64(i)})
						if err == nil {
							_, _ = short.Query(ctx, tenantName, "Q4", nil)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Storage faults off before drain: shutdown's flush must not be
	// sabotaged by the test harness itself.
	faults.Reset()

	// Graceful stop: drain, flush, close.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	hs.Close()

	snap := reg.Snapshot()
	c := snap.Counters

	// (4) Exact accounting: every request produced exactly one response or
	// one deliberate drop. Nothing vanished.
	requests := c["server.requests"]
	accounted := c["server.resp.ok"] + c["server.resp.client_error"] +
		c["server.resp.server_error"] + c["server.fault.response_drop"]
	if requests == 0 {
		t.Fatalf("hammer issued no requests")
	}
	if requests != accounted {
		t.Fatalf("request accounting broken: requests=%d accounted=%d (ok=%d 4xx=%d 5xx=%d dropped=%d)",
			requests, accounted, c["server.resp.ok"], c["server.resp.client_error"],
			c["server.resp.server_error"], c["server.fault.response_drop"])
	}
	// Admitted requests are a subset, and sheds+admitted+accept-failures
	// never exceed the request count.
	if c["server.admitted"] > requests {
		t.Fatalf("admitted=%d > requests=%d", c["server.admitted"], requests)
	}

	// (3) Bounded memory: the gauges' high-water marks respect the limits.
	if hi := snap.Gauges["server.inflight"].High; hi > int64(limits.MaxConcurrent) {
		t.Fatalf("inflight high-water %d exceeds MaxConcurrent %d", hi, limits.MaxConcurrent)
	}
	if hi := snap.Gauges["server.queue.depth"].High; hi > int64(limits.MaxQueue) {
		t.Fatalf("queue depth high-water %d exceeds MaxQueue %d", hi, limits.MaxQueue)
	}
	if v := snap.Gauges["server.inflight"].Value; v != 0 {
		t.Fatalf("inflight gauge = %d after drain, want 0", v)
	}
	if v := snap.Gauges["server.queue.depth"].Value; v != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", v)
	}

	// (1) Zero acknowledged-write loss: recover both tenants from the
	// retained WAL bytes and check every acknowledged station and point.
	for tn := 0; tn < 2; tn++ {
		tenantName := fmt.Sprintf("t%d", tn)
		eng, rec, err := be.Recover(tenantName)
		if err != nil {
			t.Fatalf("recover %s: %v", tenantName, err)
		}
		if rec.OrphanNodes+rec.OrphanSeries != 0 {
			t.Fatalf("%s: clean shutdown left torn writes: %s", tenantName, rec)
		}
		recovered := map[string]bool{}
		for _, st := range eng.G.NodesByLabel("Station") {
			if v, ok := eng.G.NodeProp(st, "name"); ok {
				recovered[v.S] = true
			}
		}
		mu.Lock()
		for key := range ackStations {
			tn2, name, _ := cut(key)
			if tn2 != tenantName {
				continue
			}
			if !recovered[name] {
				mu.Unlock()
				t.Fatalf("%s: acknowledged station %q lost after recovery", tenantName, name)
			}
		}
		mu.Unlock()
	}
	// Points: check each against its owning tenant's recovered engine.
	mu.Lock()
	pts := append([]ackPoint(nil), ackPoints...)
	mu.Unlock()
	engines := map[string]*ttdb.Polyglot{}
	for tn := 0; tn < 2; tn++ {
		name := fmt.Sprintf("t%d", tn)
		eng, _, err := be.Recover(name)
		if err != nil {
			t.Fatalf("recover %s: %v", name, err)
		}
		engines[name] = eng
	}
	for _, p := range pts {
		found := false
		// The range is half-open; [t, t+1) isolates the exact sample.
		got, err := engines[p.tenant].Exec(context.Background(), ttdb.Q1(ttdb.StationID(p.station), ts.Time(p.t), ts.Time(p.t)+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range got.Points {
			if q.V == p.v {
				found = true
			}
		}
		if !found {
			t.Fatalf("acknowledged point (%s station=%d t=%d v=%v) lost after recovery",
				p.tenant, p.station, p.t, p.v)
		}
	}

	// (2) No goroutine leak: the worker fleet, the server and its tenants
	// are gone. Allow the runtime a moment to reap netpoll goroutines.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+4 || time.Now().After(deadline) {
			if g > before+4 {
				t.Fatalf("goroutine leak: %d before, %d after", before, g)
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// cut splits "tenant/name".
func cut(key string) (tenant, name string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:], true
		}
	}
	return "", key, false
}

// TestChaosShedAccounting runs a deterministic (no-drop) overload phase and
// reconciles the client-side shed count with the server's shed counters —
// the "correct shed/retry accounting" acceptance check, kept separate from
// the fault phase because a dropped shed response reaches the client as a
// transport error, not a shed.
func TestChaosShedAccounting(t *testing.T) {
	defer faults.Reset()
	be := NewMemBackend()
	reg := obs.New()
	s, err := New(Config{
		Limits:  Limits{MaxConcurrent: 1, MaxQueue: 1, TenantConcurrent: 8},
		Backend: be, Obs: reg, DefaultTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// Seed one station, then stall handlers so concurrent queries shed.
	seed, err := client.New(client.Config{Base: hs.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.IngestStation(context.Background(), "a", "s", "d",
		[]client.Point{{T: 0, V: 1}}, "seed"); err != nil {
		t.Fatalf("seed ingest: %v", err)
	}
	faults.Enable(FaultHandler, faults.Spec{Delay: 50 * time.Millisecond, Nth: 1 << 30})
	defer faults.Disable(FaultHandler)

	base := reg.Snapshot().Counters
	const fleet, perClient = 6, 4
	// The fleet shares one transport that counts its round trips and the
	// sheds they bring back.
	var attempts, sheds atomic.Int64
	transport := &http.Client{Transport: countingTransport(func(resp *http.Response, err error) {
		attempts.Add(1)
		if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
			sheds.Add(1)
		}
	})}
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		cl, err := client.New(client.Config{
			Base: hs.URL, HTTP: transport, MaxAttempts: 3, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				_, _ = cl.Query(context.Background(), "a", "Q4", nil)
			}
		}(cl)
	}
	wg.Wait()

	snap := reg.Snapshot().Counters
	serverSheds := snap["server.shed.queue_full"] - base["server.shed.queue_full"]
	// Each request's attempts beyond its first are its retries.
	clientSheds, clientRetries := sheds.Load(), attempts.Load()-fleet*perClient
	// Every shed the server recorded was delivered to exactly one client
	// (no drop faults armed), and vice versa.
	if clientSheds != serverSheds {
		t.Fatalf("shed accounting: clients saw %d, server recorded %d", clientSheds, serverSheds)
	}
	// Every retry was provoked by a shed (the server is otherwise healthy),
	// so retries can never exceed sheds.
	if clientRetries > clientSheds {
		t.Fatalf("retry accounting: %d retries but only %d sheds", clientRetries, clientSheds)
	}
}

// countingTransport is http.DefaultTransport that reports every round
// trip's outcome to observe.
type countingTransport func(resp *http.Response, err error)

func (observe countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	observe(resp, err)
	return resp, err
}
