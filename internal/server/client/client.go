// Package client is the retrying HTTP client for the hygraph query service
// (internal/server). It encodes the retry discipline docs/SERVICE.md
// requires of well-behaved clients:
//
//   - capped exponential backoff with jitter between attempts, so a shed
//     fleet does not retry in lockstep;
//   - server Retry-After hints (X-Retry-After-MS when present, else the
//     Retry-After header) override the computed backoff — the server knows
//     its backlog better than the client's exponent does;
//   - only safe requests are retried: reads, naturally idempotent writes
//     (point upserts, trip upserts), and keyed station ingest. A station
//     ingest WITHOUT an idempotency key is never retried — after a torn
//     response the client cannot know whether the server committed, and a
//     blind retry would duplicate the station.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Point is one (t, v) sample on the wire.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Config parameterizes a Client. Zero fields select defaults.
type Config struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080". Required.
	Base string
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds round trips per request, first try included
	// (default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 25ms); MaxDelay
	// caps it (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Timeout, when > 0, is sent as the per-request X-Timeout-MS budget.
	Timeout time.Duration
	// Seed makes the jitter sequence reproducible; 0 derives one from the
	// clock (fine outside tests).
	Seed int64
}

// Client issues requests against one server with the retry discipline
// applied. Safe for concurrent use.
type Client struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a client. It fails only on a missing Base.
func New(cfg Config) (*Client, error) {
	if cfg.Base == "" {
		return nil, errors.New("client: config needs a Base URL")
	}
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 25 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// APIError is a non-2xx JSON response from the server.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's backoff hint on sheds (0 = none given).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Status, e.Code, e.Message)
}

// retryable reports whether a failed attempt may be retried at all
// (independent of the request's own idempotency).
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
			return true
		default:
			// Other 4xx are misuse and other 5xx ambiguous server state;
			// both would fail identically on replay or risk duplication.
			return false
		}
	}
	// Anything that is not an APIError is transport-level: conn refused,
	// reset, torn response. Retryable for idempotent requests only.
	return true
}

// backoff computes the wait before attempt n (1-based retry index),
// honoring a server hint when present.
func (c *Client) backoff(n int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	d := c.cfg.BaseDelay << (n - 1)
	if d > c.cfg.MaxDelay || d <= 0 {
		d = c.cfg.MaxDelay
	}
	// Jitter in [0.5, 1.5): desynchronizes a shed fleet.
	c.mu.Lock()
	f := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * f)
	if d > c.cfg.MaxDelay {
		d = c.cfg.MaxDelay
	}
	return d
}

// do runs one request with retries. idempotent=false disables ALL retries:
// the caller's request may have committed server-side on an ambiguous
// failure. Body is re-sent from bytes on every attempt.
func (c *Client) do(ctx context.Context, method, path string, hdr map[string]string, body []byte, idempotent bool, out any) error {
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := c.once(ctx, method, path, hdr, body, out)
		if err == nil {
			return nil
		}
		lastErr = err

		var ae *APIError
		var hint time.Duration
		if errors.As(err, &ae) {
			hint = ae.RetryAfter
		}

		if !idempotent || !retryable(err) || attempt >= c.cfg.MaxAttempts {
			return lastErr
		}
		t := time.NewTimer(c.backoff(attempt, hint))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// once is a single HTTP round trip plus JSON decode.
func (c *Client) once(ctx context.Context, method, path string, hdr map[string]string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.cfg.Timeout > 0 {
		req.Header.Set("X-Timeout-MS", strconv.FormatInt(c.cfg.Timeout.Milliseconds(), 10))
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		ae := &APIError{Status: resp.StatusCode, RetryAfter: retryAfter(resp.Header)}
		var eb struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(raw, &eb) == nil {
			ae.Code, ae.Message = eb.Error.Code, eb.Error.Message
		}
		return ae
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: decoding response: %w", err)
		}
	}
	return nil
}

// retryAfter extracts the server's backoff hint, preferring the precise
// millisecond header over the whole-second standard one.
func retryAfter(h http.Header) time.Duration {
	if ms := h.Get("X-Retry-After-MS"); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	if s := h.Get("Retry-After"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Second
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// API surface

// IngestStation creates a station. With a non-empty idempotency key the
// request is retried like any idempotent call; with an empty key it is
// attempted exactly once and any ambiguous failure is returned as-is,
// wrapped in ErrNotRetried.
func (c *Client) IngestStation(ctx context.Context, tenant, name, district string, pts []Point, idemKey string) (uint32, error) {
	body, err := json.Marshal(map[string]any{"name": name, "district": district, "points": pts})
	if err != nil {
		return 0, err
	}
	var hdr map[string]string
	if idemKey != "" {
		hdr = map[string]string{"X-Idempotency-Key": idemKey}
	}
	var out struct {
		Station uint32 `json:"station"`
	}
	err = c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/stations", hdr, body, idemKey != "", &out)
	if err != nil && idemKey == "" && retryable(err) {
		err = fmt.Errorf("%w: %w", ErrNotRetried, err)
	}
	return out.Station, err
}

// ErrNotRetried wraps a retryable failure the client refused to retry
// because the request carried no idempotency key.
var ErrNotRetried = errors.New("client: not retried (no idempotency key)")

// AppendPoint upserts one sample (idempotent by timestamp, always retried).
func (c *Client) AppendPoint(ctx context.Context, tenant string, station uint32, t int64, v float64) error {
	body, err := json.Marshal(map[string]any{"station": station, "t": t, "v": v})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/points", nil, body, true, nil)
}

// AddTrip upserts a trip edge (idempotent, always retried).
func (c *Client) AddTrip(ctx context.Context, tenant string, from, to uint32, count int) error {
	body, err := json.Marshal(map[string]any{"from": from, "to": to, "count": count})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/trips", nil, body, true, nil)
}

// QueryResult is a Table 1 query response. Result's concrete shape depends
// on the query (points, scalar, maps).
type QueryResult struct {
	Query    string          `json:"query"`
	Result   json.RawMessage `json:"result"`
	Degraded bool            `json:"degraded"`
}

// Query runs one of Q1..Q8 with the given parameters.
func (c *Client) Query(ctx context.Context, tenant, name string, params url.Values) (*QueryResult, error) {
	if params == nil {
		params = url.Values{}
	}
	params.Set("name", name)
	var out QueryResult
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+tenant+"/query?"+params.Encode(), nil, nil, true, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// HyQLResult is a HyQL response: column names plus stringified rows.
type HyQLResult struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// HyQL executes a HyQL query at the given valid-time instant.
func (c *Client) HyQL(ctx context.Context, tenant, query string, at int64) (*HyQLResult, error) {
	body, err := json.Marshal(map[string]any{"query": query, "at": at})
	if err != nil {
		return nil, err
	}
	var out HyQLResult
	if err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/hyql", nil, body, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
