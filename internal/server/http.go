package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
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

// asTimeout maps a context deadline error to 504 (accounting the miss);
// anything else to 500 under the given code.
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
	switch {
	case resp.status < 300:
		s.o.ok.Inc()
	case resp.status < 500:
		s.o.clientErr.Inc()
	default:
		s.o.serverErr.Inc()
	}
	d := time.Since(t0)
	s.o.latency.Observe(d)
	if t != nil {
		t.lat.Observe(d)
	}
	writeJSON(w, resp.status, resp.body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
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
		return s.writeErr(err, "ingest_failed")
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
		return s.writeErr(err, "append_failed")
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
		return s.writeErr(err, "trip_failed")
	}
	t.version.Add(1)
	return okJSON(map[string]any{"ok": true})
}

// writeErr maps a storage-side error: deadline → 504, anything else → 500.
func (s *Server) writeErr(err error, code string) response {
	return s.asTimeout(err, code)
}

// ---------------------------------------------------------------------------
// Query endpoints

// handleQuery dispatches the Table 1 queries Q1–Q8 by name, threading the
// request context through the engine (ttdb *Ctx variants) so the deadline
// cancels mid-fan-out. A degraded time-series store yields HTTP 200 with
// "degraded": true and the graph-derivable partial result.
func (s *Server) handleQuery(ctx context.Context, r *http.Request, t *tenant) response {
	q := r.URL.Query()
	name := q.Get("name")
	getI := func(key string, def int64) int64 {
		raw := q.Get(key)
		if raw == "" {
			return def
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return def
		}
		return v
	}
	st := ttdb.StationID(getI("station", 0))
	start := ts.Time(getI("start", 0))
	end := ts.Time(getI("end", int64(ts.MaxTime)))

	var result any
	var err error
	switch name {
	case "Q1":
		result, err = t.db.Q1TimeRangeCtx(ctx, st, start, end)
	case "Q2":
		below, perr := strconv.ParseFloat(q.Get("below"), 64)
		if perr != nil {
			return errJSON(http.StatusBadRequest, "bad_query", "Q2 needs below=<float>")
		}
		result, err = t.db.Q2FilteredRangeCtx(ctx, st, start, end, below)
	case "Q3":
		result, err = t.db.Q3StationMeanCtx(ctx, st, start, end)
	case "Q4":
		result, err = t.db.Q4AllStationMeansCtx(ctx, start, end)
	case "Q5":
		result, err = t.db.Q5DistrictSumsCtx(ctx, start, end)
	case "Q6":
		result, err = t.db.Q6TopKStationsCtx(ctx, start, end, int(getI("k", 3)))
	case "Q7":
		x := ttdb.StationID(getI("x", 0))
		y := ttdb.StationID(getI("y", 0))
		bucket := ts.Time(getI("bucket", int64(ts.Hour)))
		result, err = t.db.Q7CorrelationCtx(ctx, x, y, start, end, bucket)
	case "Q8":
		result, err = t.db.Q8NeighborMeansCtx(ctx, st, start, end)
	case "downsample":
		agg, perr := ts.ParseAggFunc(q.Get("agg"))
		if perr != nil {
			return errJSON(http.StatusBadRequest, "bad_query", perr.Error())
		}
		bucket := ts.Time(getI("bucket", int64(ts.Hour)))
		if bucket <= 0 {
			return errJSON(http.StatusBadRequest, "bad_query", "downsample needs bucket > 0")
		}
		result, err = t.db.DownsampleCtx(ctx, st, start, end, bucket, agg)
	default:
		return errJSON(http.StatusBadRequest, "bad_query",
			fmt.Sprintf("unknown query %q (want Q1..Q8 or downsample)", name))
	}
	if err != nil {
		if errors.Is(err, ttdb.ErrDegraded) {
			return okJSON(map[string]any{"query": name, "result": result, "degraded": true})
		}
		return s.asTimeout(err, "query_failed")
	}
	return okJSON(map[string]any{"query": name, "result": result})
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
