package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"hygraph/internal/faults"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// maxBody bounds request bodies; a station ingest with a year of minutely
// points fits comfortably, a hostile body does not.
const maxBody = 8 << 20

// apiError is the JSON error envelope. Code is machine-readable and stable
// (docs/SERVICE.md); Message is for humans.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// response is what a handler body produces: a status plus a JSON-encodable
// payload. The wrapper owns the actual write so the response-drop fault
// point can abort after the handler has committed its work.
type response struct {
	status int
	body   any
}

func okJSON(body any) response { return response{http.StatusOK, body} }

func errJSON(status int, code, msg string) response {
	return response{status, errorBody{apiError{code, msg}}}
}

// handlerFunc is a request body running under an admitted slot and a live
// deadline context.
type handlerFunc func(ctx context.Context, r *http.Request, t *tenant) response

// routes mounts the API (Go 1.22 ServeMux patterns).
func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.Handle("POST /v1/tenants/{tenant}/stations", s.wrap(s.handleStations))
	s.mux.Handle("POST /v1/tenants/{tenant}/points", s.wrap(s.handlePoints))
	s.mux.Handle("POST /v1/tenants/{tenant}/trips", s.wrap(s.handleTrips))
	s.mux.Handle("GET /v1/tenants/{tenant}/query", s.wrap(s.handleQuery))
	s.mux.Handle("POST /v1/tenants/{tenant}/hyql", s.wrap(s.handleHyQL))
	s.mux.Handle("GET /v1/tenants/{tenant}/stats", s.wrap(s.handleStats))
}

// handleHealth bypasses admission: load balancers must see drain state even
// when the server is saturated.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status})
}

// handleMetrics dumps the obs registry snapshot (404 when uninstrumented).
// It bypasses admission for the same reason health does: metrics must stay
// readable under overload, when they matter most.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeJSON(w, http.StatusNotFound, errorBody{apiError{"no_metrics", "server runs uninstrumented"}})
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// wrap is the request spine every tenant endpoint runs through: fault
// points, drain shedding, deadline assignment, admission, execution, and
// the single response write. The order is load-bearing and documented in
// docs/SERVICE.md.
func (s *Server) wrap(h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.o.requests.Inc()

		// 1. Accept-path fault: the request dies before it is even a request.
		if err := faults.Check(FaultAccept); err != nil {
			s.o.acceptFail.Inc()
			s.finish(w, r, nil, t0, errJSON(http.StatusInternalServerError, "accept_failed", err.Error()))
			return
		}

		// 2. Draining servers shed everything new immediately.
		if s.draining.Load() {
			s.o.shedDraining.Inc()
			s.shed(w, r, nil, t0, &shedError{
				Status: http.StatusServiceUnavailable, Reason: "draining", RetryAfter: time.Second})
			return
		}

		// 3. Resolve the tenant (opens the engine on first use).
		name := r.PathValue("tenant")
		if !validTenant(name) {
			s.finish(w, r, nil, t0, errJSON(http.StatusBadRequest, "bad_tenant", "invalid tenant name"))
			return
		}
		ten, err := s.tenant(name)
		if err != nil {
			s.finish(w, r, nil, t0, errJSON(http.StatusInternalServerError, "tenant_open_failed", err.Error()))
			return
		}

		// 4. Assign the request budget. It covers queueing AND execution:
		// time spent waiting for a slot is time the client is also waiting.
		budget, resp := s.budget(r)
		if resp != nil {
			s.finish(w, r, ten, t0, *resp)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()

		// 5. Admission. Refusals carry Retry-After; a budget that expires
		// while queued is a deadline miss, not a shed.
		release, err := s.adm.admit(ctx, ten)
		if err != nil {
			var se *shedError
			if errors.As(err, &se) {
				s.shed(w, r, ten, t0, se)
				return
			}
			s.o.deadlineMiss.Inc()
			s.finish(w, r, ten, t0, errJSON(http.StatusGatewayTimeout, "deadline_exceeded",
				"request budget exhausted while queued"))
			return
		}
		defer release()

		// 6. Handler fault point: injected latency waits under the request
		// deadline (CheckCtx), injected errors crash the handler.
		if err := faults.CheckCtx(ctx, FaultHandler); err != nil {
			s.finish(w, r, ten, t0, s.asTimeout(err, "handler_failed"))
			return
		}

		// 7. The handler body.
		resp2 := h(ctx, r, ten)
		if resp2.status == http.StatusGatewayTimeout {
			s.o.deadlineMiss.Inc()
		}
		s.finish(w, r, ten, t0, resp2)
	})
}

// budget resolves the request's deadline budget from X-Timeout-MS (or the
// timeout_ms query parameter), clamped to (0, MaxTimeout].
func (s *Server) budget(r *http.Request) (time.Duration, *response) {
	raw := r.Header.Get("X-Timeout-MS")
	if raw == "" {
		raw = r.URL.Query().Get("timeout_ms")
	}
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		resp := errJSON(http.StatusBadRequest, "bad_timeout", "timeout_ms must be a positive integer")
		return 0, &resp
	}
	budget := time.Duration(ms) * time.Millisecond
	if budget > s.cfg.MaxTimeout {
		budget = s.cfg.MaxTimeout
	}
	return budget, nil
}

// asTimeout maps an engine error: a context deadline to 504 (accounting the
// miss), anything else to 500 under the given code.
func (s *Server) asTimeout(err error, code string) response {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.o.deadlineMiss.Inc()
		return errJSON(http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	}
	return errJSON(http.StatusInternalServerError, code, err.Error())
}

// shed writes an admission refusal: status + Retry-After (whole seconds,
// rounded up, floor 1 — the HTTP header cannot say "25ms") and
// X-Retry-After-MS with the precise hint for clients that can.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, t *tenant, t0 time.Time, se *shedError) {
	if se.RetryAfter > 0 {
		secs := int64(math.Ceil(se.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set("X-Retry-After-MS", strconv.FormatInt(se.RetryAfter.Milliseconds(), 10))
	}
	s.finish(w, r, t, t0, errJSON(se.Status, se.Reason, se.Error()))
}

// finish is the single response write: response-drop fault, status
// accounting, latency recording, JSON body.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, t *tenant, t0 time.Time, resp response) {
	if err := faults.Check(FaultDropResponse); err != nil {
		s.o.dropped.Inc()
		// ErrAbortHandler kills the connection without a response — the
		// client sees io.EOF for work that may already be durable.
		panic(http.ErrAbortHandler)
	}
	status, buf := marshal(resp.status, resp.body)
	switch {
	case status < 300:
		s.o.ok.Inc()
	case status < 500:
		s.o.clientErr.Inc()
	default:
		s.o.serverErr.Inc()
	}
	d := time.Since(t0)
	s.o.latency.Observe(d)
	if t != nil {
		t.lat.Observe(d)
	}
	send(w, status, buf)
}

// marshal encodes a response before anything is written, so a body the
// encoder refuses becomes a 500 encode_failed instead of a 200 with an empty
// body. The trailing newline is json.Encoder's framing, kept for clients
// that read line by line.
func marshal(status int, body any) (int, []byte) {
	if raw, ok := body.(encoded); ok {
		return status, raw
	}
	buf, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		buf, _ = json.Marshal(errorBody{apiError{"encode_failed", err.Error()}}) // two strings always encode
	}
	return status, append(buf, '\n')
}

func send(w http.ResponseWriter, status int, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The client may be gone; there is nobody left to report a failed write to.
	_, _ = w.Write(buf)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	status, buf := marshal(status, body)
	send(w, status, buf)
}

// decode reads a JSON body with the size cap.
func decode(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// ---------------------------------------------------------------------------
// Ingest endpoints

// pointJSON is one (t, v) sample on the wire.
type pointJSON struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

type stationReq struct {
	Name     string      `json:"name"`
	District string      `json:"district"`
	Points   []pointJSON `json:"points"`
}

// handleStations ingests one station through the two-store durable
// protocol. Station ingest allocates an id, so it is NOT idempotent; the
// X-Idempotency-Key header makes retries safe (same key → same station id,
// executed once).
func (s *Server) handleStations(ctx context.Context, r *http.Request, t *tenant) response {
	var req stationReq
	if err := decode(r, &req); err != nil {
		return errJSON(http.StatusBadRequest, "bad_body", err.Error())
	}
	if req.Name == "" {
		return errJSON(http.StatusBadRequest, "bad_body", "station name is required")
	}
	series := ts.New(ttdb.Metric)
	for _, p := range req.Points {
		series.Upsert(ts.Time(p.T), p.V)
	}
	id, err := t.ingestStation(r.Header.Get("X-Idempotency-Key"), req.Name, req.District, series)
	if err != nil {
		return s.asTimeout(err, "ingest_failed")
	}
	return okJSON(map[string]any{"station": id})
}

type pointReq struct {
	Station uint32  `json:"station"`
	T       int64   `json:"t"`
	V       float64 `json:"v"`
}

// handlePoints appends one sample. AppendPoint upserts by timestamp, so the
// operation is naturally idempotent and retries need no key.
func (s *Server) handlePoints(ctx context.Context, r *http.Request, t *tenant) response {
	var req pointReq
	if err := decode(r, &req); err != nil {
		return errJSON(http.StatusBadRequest, "bad_body", err.Error())
	}
	if err := t.db.AppendPoint(ttdb.StationID(req.Station), ts.Time(req.T), req.V); err != nil {
		return s.asTimeout(err, "append_failed")
	}
	t.version.Add(1)
	return okJSON(map[string]any{"ok": true})
}

type tripReq struct {
	From  uint32 `json:"from"`
	To    uint32 `json:"to"`
	Count int    `json:"count"`
}

// handleTrips upserts a TRIP edge. AddTrip sets the count property to the
// given value (not +=), so retries are idempotent.
func (s *Server) handleTrips(ctx context.Context, r *http.Request, t *tenant) response {
	var req tripReq
	if err := decode(r, &req); err != nil {
		return errJSON(http.StatusBadRequest, "bad_body", err.Error())
	}
	err := t.db.AddTrip(ttdb.StationID(req.From), ttdb.StationID(req.To), req.Count)
	t.wroteStructure()
	if err != nil {
		return s.asTimeout(err, "trip_failed")
	}
	t.version.Add(1)
	return okJSON(map[string]any{"ok": true})
}

// ---------------------------------------------------------------------------
// Query endpoints

// handleQuery answers Q1–Q8 and downsample: URL → ttdb.Query → Exec →
// Result. The request context threads through every layer's Exec, so the
// deadline cancels mid-fan-out. A degraded time-series store (or a lost
// partition) yields HTTP 200 with "degraded": true and the partial result.
func (s *Server) handleQuery(ctx context.Context, r *http.Request, t *tenant) response {
	q, err := parseQuery(r.URL.Query())
	if err != nil {
		return errJSON(http.StatusBadRequest, "bad_query", err.Error())
	}
	res, err := t.db.Exec(ctx, q)
	degraded := errors.Is(err, ttdb.ErrDegraded)
	switch {
	case err == nil || degraded:
	case errors.Is(err, ttdb.ErrBadQuery):
		return errJSON(http.StatusBadRequest, "bad_query", err.Error())
	default:
		return s.asTimeout(err, "query_failed")
	}
	return okJSON(queryBody(q.Op, res, degraded))
}

// encoded is a response body that is already JSON, newline included.
type encoded []byte

// queryBody writes a query answer exactly as encoding/json writes
// map[string]any{"degraded": true, "query": name, "result": res} (keys
// sorted; "degraded" only when set), appending the Result's encoding in place:
// behind json.Marshal its bytes would be re-scanned for validity, which
// triples the cost of a long Q1 answer.
func queryBody(op ttdb.Op, res ttdb.Result, degraded bool) encoded {
	b := make([]byte, 0, 64)
	b = append(b, '{')
	if degraded {
		b = append(b, `"degraded":true,`...)
	}
	b = append(b, `"query":"`...)
	b = append(b, op.String()...)
	b = append(b, `","result":`...)
	b = res.AppendJSON(b)
	return append(b, "}\n"...)
}

// parseQuery reads the query endpoint's parameters into a descriptor. An
// absent parameter takes its default (station, x, y, start 0; end open; k 3;
// bucket one hour); one that is present but malformed is an error naming it.
// Q2 requires below, downsample requires agg; what the values must satisfy
// is Query.Validate's business.
func parseQuery(v url.Values) (ttdb.Query, error) {
	op, ok := ttdb.ParseOp(v.Get("name"))
	if !ok {
		return ttdb.Query{}, fmt.Errorf("unknown query %q (want Q1..Q8 or downsample)", v.Get("name"))
	}
	var bad error
	num := func(key string, def int64) int64 {
		raw := v.Get(key)
		if raw == "" {
			return def
		}
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil && bad == nil {
			bad = fmt.Errorf("parameter %s=%q is not an integer", key, raw)
		}
		return n
	}
	q := ttdb.Query{
		Op:      op,
		Station: ttdb.StationID(num("station", 0)),
		Start:   ts.Time(num("start", 0)),
		End:     ts.Time(num("end", int64(ts.MaxTime))),
		Bucket:  ts.Time(num("bucket", int64(ts.Hour))),
		K:       int(num("k", 3)),
	}
	switch op {
	case ttdb.OpQ2:
		below, err := strconv.ParseFloat(v.Get("below"), 64)
		if err != nil && bad == nil {
			bad = fmt.Errorf("Q2 needs below=<float>")
		}
		q.Below = below
	case ttdb.OpQ7:
		q.Station, q.Other = ttdb.StationID(num("x", 0)), ttdb.StationID(num("y", 0))
	case ttdb.OpDownsample:
		agg, err := ts.ParseAggFunc(v.Get("agg"))
		if err != nil && bad == nil {
			bad = err
		}
		q.Agg = agg
	}
	return q, bad
}

type hyqlReq struct {
	Query string `json:"query"`
	At    int64  `json:"at"`
}

// handleHyQL executes a HyQL query over the tenant's stores.
func (s *Server) handleHyQL(ctx context.Context, r *http.Request, t *tenant) response {
	var req hyqlReq
	if err := decode(r, &req); err != nil {
		return errJSON(http.StatusBadRequest, "bad_body", err.Error())
	}
	res, err := t.hyqlQuery(ctx, req.Query, ts.Time(req.At))
	if errors.Is(err, errHyQLNotRun) {
		return s.asTimeout(err, "hyql_failed")
	}
	if err != nil {
		return errJSON(http.StatusBadRequest, "hyql_error", err.Error())
	}
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = fmt.Sprint(v)
		}
		rows[i] = out
	}
	return okJSON(map[string]any{"columns": res.Columns, "rows": rows})
}

// handleStats reports tenant shape: station count and the write version
// (clients use it to detect missed writes after torn responses).
func (s *Server) handleStats(ctx context.Context, r *http.Request, t *tenant) response {
	return okJSON(map[string]any{
		"tenant":   t.name,
		"stations": t.db.NumStations(),
		"version":  t.version.Load(),
	})
}
