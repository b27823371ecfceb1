// Package server is the network query service over the durable polyglot
// engine: a stdlib net/http JSON API exposing the Table 1 queries Q1–Q8,
// HyQL, and durable ingest per tenant namespace (ROADMAP open item 1; the
// upstream authors serve the same surface over AGE+TimescaleDB).
//
// The robustness model, not the transport, is the point:
//
//   - Admission control. Every request passes an admission controller with
//     a global in-flight cap, a bounded wait queue, a per-tenant in-flight
//     cap, and a per-tenant token-bucket rate limit. Requests beyond the
//     queue bound are shed immediately with 503/429 and a Retry-After hint
//     instead of accumulating unbounded goroutines — overload degrades
//     throughput, never memory.
//
//   - Deadlines. Each request runs under a server-assigned context budget
//     (client-requestable, capped) that is threaded through the engine's
//     worker pool and store reads (every layer's Exec), so a slow Q8 is
//     cancelled mid-fan-out. Queries against a degraded time-series store
//     return the graph-derivable partial result marked degraded, exactly
//     like the embedded engine.
//
//   - Graceful shutdown. Shutdown stops accepting, sheds new requests with
//     Retry-After, drains in-flight handlers, then flushes every tenant's
//     WAL group writers (DurablePolyglot.SyncAll) before returning, so an
//     acknowledged write is never lost to a clean stop.
//
//   - Fault points. server.accept, server.handler and server.response.drop
//     (internal/faults) let the chaos harness fail admission, slow handlers
//     under their deadlines, and kill connections mid-response against a
//     live server.
//
// Every admission decision, shed, deadline miss, queue depth and drain
// duration is wired through internal/obs. docs/SERVICE.md specifies the
// API and the admission/backpressure/drain contracts; internal/server/client
// is the matching retry client.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hygraph/internal/obs"
)

// Fault points consulted by the service layer (see internal/faults and
// docs/DURABILITY.md). They model the failure modes a deployed server meets
// that the storage fault points cannot: the listener/accept path erroring,
// a handler stalling under load, and the network dying mid-response.
const (
	// FaultAccept fires at the top of request handling, before admission —
	// the moment accept(2)/TLS handshake would fail. The request is
	// answered 500 without touching the engine.
	FaultAccept = "server.accept"
	// FaultHandler fires after admission, before the handler body runs. A
	// Spec.Delay models a slow handler (the wait respects the request's
	// deadline via faults.CheckCtx); an error models a handler crash.
	FaultHandler = "server.handler"
	// FaultDropResponse fires after the handler body completes, before the
	// response is written. When it fires the connection is aborted, so the
	// client sees a torn response for work the engine already committed —
	// the classic "acknowledged or not?" ambiguity retry clients must
	// handle with idempotency keys.
	FaultDropResponse = "server.response.drop"
	// FaultHyQL fires inside a tenant's HyQL execution, before the query is
	// parsed. Injected latency waits under the request deadline; it holds no
	// tenant lock, so a slow query delays nobody's ingest.
	FaultHyQL = "server.hyql"
)

// Limits bounds the admission controller. The zero value of any field
// selects its default.
type Limits struct {
	// MaxConcurrent caps requests executing at once across all tenants
	// (default 4×GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue caps requests waiting for an execution slot; arrivals
	// beyond it are shed with 503 (default 4×MaxConcurrent).
	MaxQueue int
	// TenantConcurrent caps one tenant's in-flight requests so a single
	// tenant cannot occupy every slot (default MaxConcurrent).
	TenantConcurrent int
	// TenantRate is the per-tenant token-bucket refill rate in requests
	// per second; 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the bucket capacity (default max(1, TenantRate)).
	TenantBurst float64
}

// Resolved returns the limits with every zero field replaced by its
// default — what a Server built from l actually enforces. Reporting code
// (hybench -serve) uses it to record effective limits in baselines.
func (l Limits) Resolved() Limits { return l.withDefaults() }

// withDefaults resolves zero fields.
func (l Limits) withDefaults() Limits {
	if l.MaxConcurrent <= 0 {
		l.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if l.MaxQueue <= 0 {
		l.MaxQueue = 4 * l.MaxConcurrent
	}
	if l.TenantConcurrent <= 0 {
		l.TenantConcurrent = l.MaxConcurrent
	}
	if l.TenantRate > 0 && l.TenantBurst <= 0 {
		l.TenantBurst = l.TenantRate
		if l.TenantBurst < 1 {
			l.TenantBurst = 1
		}
	}
	return l
}

// Config scopes one Server.
type Config struct {
	Limits Limits
	// DefaultTimeout is the per-request budget when the client does not
	// request one (default 2s). MaxTimeout caps client-requested budgets
	// (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// GroupCommit is the WAL group-commit batch bound applied to every
	// tenant engine (default 64).
	GroupCommit int
	// Workers is the engine fan-out width (default GOMAXPROCS).
	Workers int
	// Backend opens tenant engines; required.
	Backend Backend
	// Obs receives admission/shed/deadline/drain metrics; nil disables
	// instrumentation (every handle below is nil-safe).
	Obs *obs.Registry
}

// serverObs holds the server's preallocated metric handles. Zero value =
// instrumentation off.
type serverObs struct {
	requests     *obs.Counter   // requests reaching the service (all outcomes)
	admitted     *obs.Counter   // requests that won an execution slot
	ok           *obs.Counter   // 2xx responses
	clientErr    *obs.Counter   // 4xx responses other than sheds
	serverErr    *obs.Counter   // 5xx responses other than sheds
	shedQueue    *obs.Counter   // shed: wait queue full
	shedRate     *obs.Counter   // shed: tenant token bucket empty
	shedTenant   *obs.Counter   // shed: tenant concurrency cap
	shedDraining *obs.Counter   // shed: server draining
	acceptFail   *obs.Counter   // injected accept failures (server.accept)
	dropped      *obs.Counter   // responses aborted by server.response.drop
	deadlineMiss *obs.Counter   // requests that exhausted their budget
	inflight     *obs.Gauge     // executing requests; High() proves the cap
	queueDepth   *obs.Gauge     // waiting requests; High() proves the bound
	latency      *obs.Histogram // end-to-end request latency
	drainMS      *obs.Gauge     // duration of the last drain, milliseconds
}

func newServerObs(r *obs.Registry) serverObs {
	if r == nil {
		return serverObs{}
	}
	return serverObs{
		requests:     r.Counter("server.requests"),
		admitted:     r.Counter("server.admitted"),
		ok:           r.Counter("server.resp.ok"),
		clientErr:    r.Counter("server.resp.client_error"),
		serverErr:    r.Counter("server.resp.server_error"),
		shedQueue:    r.Counter("server.shed.queue_full"),
		shedRate:     r.Counter("server.shed.rate_limited"),
		shedTenant:   r.Counter("server.shed.tenant_busy"),
		shedDraining: r.Counter("server.shed.draining"),
		acceptFail:   r.Counter("server.fault.accept"),
		dropped:      r.Counter("server.fault.response_drop"),
		deadlineMiss: r.Counter("server.deadline_miss"),
		inflight:     r.Gauge("server.inflight"),
		queueDepth:   r.Gauge("server.queue.depth"),
		latency:      r.Histogram("server.latency"),
		drainMS:      r.Gauge("server.drain_ms"),
	}
}

// Server is the hardened query service. Construct with New, attach to a
// listener with Serve (or mount Handler), stop with Shutdown.
type Server struct {
	cfg Config
	adm *admission
	o   serverObs
	reg *obs.Registry

	mux  *http.ServeMux
	hsrv *http.Server

	draining atomic.Bool

	mu      sync.Mutex
	tenants map[string]*tenant
}

// New builds a Server from the config. It panics only on a programming
// error (nil backend); everything at run time is an error or a shed.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("server: config needs a Backend")
	}
	cfg.Limits = cfg.Limits.withDefaults()
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.GroupCommit <= 0 {
		cfg.GroupCommit = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		o:       newServerObs(cfg.Obs),
		reg:     cfg.Obs,
		tenants: map[string]*tenant{},
	}
	s.adm = newAdmission(cfg.Limits, &s.o)
	s.mux = http.NewServeMux()
	s.routes()
	s.hsrv = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler exposes the service mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Limits reports the resolved admission limits the server enforces.
func (s *Server) Limits() Limits { return s.cfg.Limits }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, mirroring net/http.
func (s *Server) Serve(ln net.Listener) error { return s.hsrv.Serve(ln) }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown performs the graceful-stop contract (docs/SERVICE.md):
//
//  1. mark draining — new requests are shed with 503 + Retry-After;
//  2. stop accepting and drain in-flight requests, bounded by ctx;
//  3. flush every tenant's WAL group writers (SyncAll), so everything
//     acknowledged is durable;
//  4. close tenant backends.
//
// The WAL flush runs even when the drain deadline expires — abandoned
// handlers may have committed writes that still deserve durability. The
// first error is returned, but later steps still run: a failed flush on one
// tenant must not leave every other tenant unflushed.
func (s *Server) Shutdown(ctx context.Context) error {
	t0 := time.Now()
	s.draining.Store(true)
	err := s.hsrv.Shutdown(ctx)

	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		if serr := t.db.SyncAll(); serr != nil && err == nil {
			err = fmt.Errorf("server: drain flush tenant %s: %w", t.name, serr)
		}
	}
	for _, t := range tenants {
		if t.closer != nil {
			if cerr := t.closer.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("server: close tenant %s: %w", t.name, cerr)
			}
		}
	}
	s.o.drainMS.Set(time.Since(t0).Milliseconds())
	return err
}

// tenant returns the named tenant, opening it through the backend on first
// use. Concurrent first requests for the same tenant open it once.
func (s *Server) tenant(name string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	db, closer, err := s.cfg.Backend.Open(name)
	if err != nil {
		return nil, fmt.Errorf("server: opening tenant %s: %w", name, err)
	}
	db.SetGroupCommit(s.cfg.GroupCommit)
	db.SetWorkers(s.cfg.Workers)
	db.Instrument(s.reg)
	t := newTenant(name, db, closer, s.cfg.Limits, s.reg)
	s.tenants[name] = t
	return t, nil
}
