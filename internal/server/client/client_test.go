package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func newClient(t *testing.T, base string, maxAttempts int) *Client {
	t.Helper()
	c, err := New(Config{
		Base:        base,
		MaxAttempts: maxAttempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestRetriesShedsUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Retry-After-MS", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"queue_full","message":"shed"}}`))
			return
		}
		w.Write([]byte(`{"query":"Q4","result":3}`))
	}))
	defer hs.Close()

	c := newClient(t, hs.URL, 4)
	res, err := c.Query(context.Background(), "a", "Q4", nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Query != "Q4" || string(res.Result) != "3" {
		t.Fatalf("result = %+v", res)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two sheds, then success)", got)
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"rate_limited","message":"slow down"}}`))
	}))
	defer hs.Close()

	c := newClient(t, hs.URL, 3)
	_, err := c.Query(context.Background(), "a", "Q4", nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (MaxAttempts)", got)
	}
}

func TestStationIngestWithoutKeyNeverRetries(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"queue_full","message":"shed"}}`))
	}))
	defer hs.Close()

	c := newClient(t, hs.URL, 5)
	_, err := c.IngestStation(context.Background(), "a", "s", "d", nil, "")
	if !errors.Is(err, ErrNotRetried) {
		t.Fatalf("err = %v, want ErrNotRetried in chain", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("keyless station ingest was attempted %d times, want exactly 1", got)
	}

	// The same ingest with a key IS retried.
	calls.Store(0)
	_, err = c.IngestStation(context.Background(), "a", "s", "d", nil, "key-1")
	if err == nil {
		t.Fatalf("expected failure from an always-shedding server")
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("keyed station ingest attempted %d times, want 5", got)
	}
}

func TestClientErrorsAreNotRetried(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"bad_query","message":"no"}}`))
	}))
	defer hs.Close()

	c := newClient(t, hs.URL, 5)
	_, err := c.Query(context.Background(), "a", "Q99", nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "bad_query" {
		t.Fatalf("err = %v, want bad_query APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 retried: %d calls", got)
	}
}

func TestNetworkErrorsRetryIdempotentRequests(t *testing.T) {
	// A listener that is already closed: every attempt is a transport error.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	hs.Close()

	var attempts, netErrors atomic.Int64
	c, err := New(Config{
		Base: hs.URL,
		HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			attempts.Add(1)
			resp, err := http.DefaultTransport.RoundTrip(r)
			if err != nil {
				netErrors.Add(1)
			}
			return resp, err
		})},
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "a", "Q4", nil); err == nil {
		t.Fatalf("expected transport error")
	}
	if attempts.Load() != 3 || netErrors.Load() != 3 {
		t.Fatalf("%d attempts / %d net errors, want 3 / 3", attempts.Load(), netErrors.Load())
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestBackoffHonorsHintAndCap(t *testing.T) {
	c := newClient(t, "http://x", 4)
	if got := c.backoff(1, 42*time.Millisecond); got != 42*time.Millisecond {
		t.Fatalf("hint ignored: %v", got)
	}
	for n := 1; n <= 10; n++ {
		d := c.backoff(n, 0)
		if d <= 0 || d > c.cfg.MaxDelay {
			t.Fatalf("backoff(%d) = %v outside (0, %v]", n, d, c.cfg.MaxDelay)
		}
	}
	// Jitter must actually vary.
	seen := map[time.Duration]bool{}
	for i := 0; i < 16; i++ {
		seen[c.backoff(1, 0)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("backoff shows no jitter: %v", seen)
	}
}

func TestDeadlineStopsRetryLoop(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Retry-After-MS", "250")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"queue_full","message":"shed"}}`))
	}))
	defer hs.Close()

	c := newClient(t, hs.URL, 100)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.Query(ctx, "a", "Q4", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if time.Since(t0) > time.Second {
		t.Fatalf("retry loop outlived its context")
	}
}
