package bench

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"hygraph/internal/server"
	"hygraph/internal/server/client"
)

// The served-workload benchmark: an open-loop load generator against the
// network query service (internal/server), measuring what an offered
// request rate turns into — served QPS, client-observed latency quantiles,
// shed rate, deadline-miss rate — at multiple load levels around the
// admission limit. Open loop matters: a closed loop (next request waits for
// the last response) self-throttles under overload and can never observe
// shedding; an open loop keeps offering at the configured rate exactly like
// an outside client population does.

// ServeTenantLat is one tenant's client-observed latency summary.
type ServeTenantLat struct {
	Tenant string  `json:"tenant"`
	Count  int64   `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// ServeLevel is the outcome of one offered-load level.
type ServeLevel struct {
	OfferedQPS float64 `json:"offered_qps"`
	// BelowLimit marks the level as provisioned under the per-tenant
	// admission rate, where the service must degrade (almost) nothing.
	BelowLimit     bool             `json:"below_limit"`
	Offered        int64            `json:"offered"`
	Completed      int64            `json:"completed"`
	Shed           int64            `json:"shed"`
	DeadlineMisses int64            `json:"deadline_misses"`
	Errors         int64            `json:"errors"`
	ServedQPS      float64          `json:"served_qps"`
	P50MS          float64          `json:"p50_ms"`
	P99MS          float64          `json:"p99_ms"`
	ShedRate       float64          `json:"shed_rate"`
	MissRate       float64          `json:"miss_rate"`
	PerTenant      []ServeTenantLat `json:"per_tenant,omitempty"`
}

// ServeReport is the served-workload section of the baseline.
type ServeReport struct {
	Tenants       int          `json:"tenants"`
	Stations      int          `json:"stations"` // per tenant
	RatePerTenant float64      `json:"rate_per_tenant"`
	MaxConcurrent int          `json:"max_concurrent"`
	WindowMS      int64        `json:"window_ms"`
	Levels        []ServeLevel `json:"levels"`
}

// ServeConfig parameterizes RunServe. Zero fields select defaults sized for
// a sub-second smoke on small hardware.
type ServeConfig struct {
	Tenants       int     // namespaces under load (default 2)
	Stations      int     // stations seeded per tenant (default 16)
	RatePerTenant float64 // admission token-bucket rate, req/s (default 400)
	WindowMS      int     // measured window per level, ms (default 500)
	// Multipliers pick the offered-load levels as fractions of the total
	// admitted capacity (Tenants × RatePerTenant). Default {0.5, 4}: one
	// level comfortably below the admission limit, one far above it.
	Multipliers []float64
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Tenants <= 0 {
		c.Tenants = 2
	}
	if c.Stations <= 0 {
		c.Stations = 16
	}
	if c.RatePerTenant <= 0 {
		c.RatePerTenant = 400
	}
	if c.WindowMS <= 0 {
		c.WindowMS = 500
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{0.5, 4}
	}
	return c
}

// outcome is one request's client-side result.
type outcome struct {
	tenant  int
	latency time.Duration
	status  int // 0 = transport error
}

// RunServe boots the query service on a loopback listener, seeds the
// tenants through the real ingest API, and drives the open-loop generator
// at each configured level. The server is drained and stopped before
// returning, so the report covers a full service lifecycle. ctx bounds the
// whole run — seeding, every fired request, and everything in between;
// cancelling it abandons the benchmark mid-level.
func RunServe(ctx context.Context, sc ServeConfig) (rep ServeReport, err error) {
	sc = sc.withDefaults()

	srv, err := server.New(server.Config{
		Limits: server.Limits{
			TenantRate:  sc.RatePerTenant,
			TenantBurst: math.Max(1, sc.RatePerTenant/10),
		},
		Backend:        server.NewMemBackend(),
		DefaultTimeout: time.Second,
	})
	if err != nil {
		return ServeReport{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServeReport{}, err
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		// Drain on the benchmark's own context, detached from cancellation:
		// even an aborted run must flush what the server accepted, but never
		// for longer than the drain budget.
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if serr := srv.Shutdown(sctx); serr != nil && err == nil {
			err = fmt.Errorf("bench: draining the server: %w", serr)
		}
	}()

	rep = ServeReport{
		Tenants:       sc.Tenants,
		Stations:      sc.Stations,
		RatePerTenant: sc.RatePerTenant,
		MaxConcurrent: server.Limits{}.Resolved().MaxConcurrent,
		WindowMS:      int64(sc.WindowMS),
	}

	// Seed each tenant through the service's own ingest path. Seeding runs
	// under the same rate limit as the benchmark, so pace it with retries.
	seedClient, err := client.New(client.Config{
		Base: base, MaxAttempts: 20, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 50 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		return rep, err
	}
	pts := make([]client.Point, 24)
	for i := range pts {
		pts[i] = client.Point{T: int64(i * 60), V: float64(10 + i%7)}
	}
	for tn := 0; tn < sc.Tenants; tn++ {
		tenant := fmt.Sprintf("bench%d", tn)
		for st := 0; st < sc.Stations; st++ {
			name := fmt.Sprintf("s%d", st)
			if _, err := seedClient.IngestStation(ctx, tenant,
				name, fmt.Sprintf("d%d", st%4), pts, "seed-"+tenant+"-"+name); err != nil {
				return rep, fmt.Errorf("bench: seeding %s/%s: %w", tenant, name, err)
			}
		}
	}

	capacity := sc.RatePerTenant * float64(sc.Tenants)
	for _, mult := range sc.Multipliers {
		lvl, err := runServeLevel(ctx, base, sc, capacity*mult, mult <= 1)
		if err != nil {
			return rep, err
		}
		rep.Levels = append(rep.Levels, lvl)
	}
	return rep, nil
}

// runServeLevel offers requests at offeredQPS for the window and tallies
// outcomes. Every fired request carries ctx, so cancelling the benchmark
// cancels the whole in-flight population.
func runServeLevel(ctx context.Context, base string, sc ServeConfig, offeredQPS float64, belowLimit bool) (ServeLevel, error) {
	window := time.Duration(sc.WindowMS) * time.Millisecond
	interval := time.Duration(float64(time.Second) / offeredQPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	total := int(window / interval)
	if total < 1 {
		total = 1
	}

	// A generously sized transport: open-loop overload means many
	// concurrent in-flight requests, and the default two idle conns per
	// host would serialize them on dialing.
	httpc := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
		Timeout: 5 * time.Second,
	}
	defer httpc.CloseIdleConnections()

	outcomes := make([]outcome, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		// Open loop: fire at the scheduled instant regardless of how many
		// responses are still outstanding.
		if wait := start.Add(time.Duration(i) * interval).Sub(time.Now()); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := i % sc.Tenants
			st := (i / sc.Tenants) % sc.Stations
			q := url.Values{
				"name":    {[]string{"Q1", "Q3", "Q8"}[i%3]},
				"station": {fmt.Sprint(st)},
				"start":   {"0"}, "end": {"100000"},
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf(
				"%s/v1/tenants/bench%d/query?%s", base, tn, q.Encode()), nil)
			if err != nil {
				outcomes[i] = outcome{tenant: tn}
				return
			}
			req.Header.Set("X-Timeout-MS", "1000")
			t0 := time.Now()
			resp, err := httpc.Do(req)
			lat := time.Since(t0)
			if err != nil {
				outcomes[i] = outcome{tenant: tn, latency: lat}
				return
			}
			resp.Body.Close()
			outcomes[i] = outcome{tenant: tn, latency: lat, status: resp.StatusCode}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	lvl := ServeLevel{
		OfferedQPS: offeredQPS,
		BelowLimit: belowLimit,
		Offered:    int64(total),
	}
	latencies := map[int][]time.Duration{}
	var completedLat []time.Duration
	for _, o := range outcomes {
		switch {
		case o.status == http.StatusOK:
			lvl.Completed++
			latencies[o.tenant] = append(latencies[o.tenant], o.latency)
			completedLat = append(completedLat, o.latency)
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
			lvl.Shed++
		case o.status == http.StatusGatewayTimeout:
			lvl.DeadlineMisses++
		default:
			lvl.Errors++
		}
	}
	lvl.ServedQPS = float64(lvl.Completed) / elapsed.Seconds()
	lvl.P50MS, lvl.P99MS = quantilesMS(completedLat)
	lvl.ShedRate = float64(lvl.Shed) / float64(lvl.Offered)
	lvl.MissRate = float64(lvl.DeadlineMisses) / float64(lvl.Offered)
	for tn := 0; tn < sc.Tenants; tn++ {
		p50, p99 := quantilesMS(latencies[tn])
		lvl.PerTenant = append(lvl.PerTenant, ServeTenantLat{
			Tenant: fmt.Sprintf("bench%d", tn),
			Count:  int64(len(latencies[tn])),
			P50MS:  p50, P99MS: p99,
		})
	}
	return lvl, nil
}

// checkServe validates the served-workload section: at least two levels
// spanning the admission limit, exact outcome accounting, finite rates, and
// the headline SLO — a deadline-miss rate under 1% when provisioned below
// the admission limit.
func checkServe(r *ServeReport) []string {
	var problems []string
	if len(r.Levels) < 2 {
		problems = append(problems, fmt.Sprintf("serve: %d load levels, want >= 2", len(r.Levels)))
	}
	var below, above bool
	for i, l := range r.Levels {
		name := fmt.Sprintf("serve.levels[%d]", i)
		if l.BelowLimit {
			below = true
		} else {
			above = true
		}
		if l.Offered < 1 {
			problems = append(problems, name+": no requests offered")
			continue
		}
		if got := l.Completed + l.Shed + l.DeadlineMisses + l.Errors; got != l.Offered {
			problems = append(problems, fmt.Sprintf(
				"%s: outcomes %d != offered %d — requests vanished unaccounted", name, got, l.Offered))
		}
		for _, m := range []struct {
			n string
			v float64
		}{
			{"offered_qps", l.OfferedQPS}, {"served_qps", l.ServedQPS},
			{"p50_ms", l.P50MS}, {"p99_ms", l.P99MS},
			{"shed_rate", l.ShedRate}, {"miss_rate", l.MissRate},
		} {
			if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v < 0 {
				problems = append(problems, fmt.Sprintf("%s.%s = %v not finite and non-negative", name, m.n, m.v))
			}
		}
		if l.Completed > 0 && l.P99MS < l.P50MS {
			problems = append(problems, fmt.Sprintf("%s: p99 %.3fms below p50 %.3fms", name, l.P99MS, l.P50MS))
		}
		if l.BelowLimit {
			if l.MissRate >= 0.01 {
				problems = append(problems, fmt.Sprintf(
					"%s: deadline-miss rate %.4f >= 1%% below the admission limit", name, l.MissRate))
			}
			if l.Completed == 0 {
				problems = append(problems, name+": below-limit level served nothing")
			}
		}
	}
	if len(r.Levels) >= 2 {
		if !below {
			problems = append(problems, "serve: no below-limit level recorded")
		}
		if !above {
			problems = append(problems, "serve: no above-limit level recorded")
		}
	}
	return problems
}

// FormatServe renders the served-workload section as an aligned table.
func FormatServe(r ServeReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Served workload — %d tenants × %d stations, %g req/s admitted per tenant, %dms window (procs=%d)\n",
		r.Tenants, r.Stations, r.RatePerTenant, r.WindowMS, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-12s %10s %10s %9s %9s %9s %9s\n",
		"offered", "served", "p50", "p99", "shed", "missed", "errors")
	for _, l := range r.Levels {
		tag := ""
		if l.BelowLimit {
			tag = " (below limit)"
		}
		fmt.Fprintf(&b, "%-12s %10.0f %8.2fms %7.2fms %8.1f%% %8.2f%% %9d%s\n",
			fmt.Sprintf("%.0f qps", l.OfferedQPS), l.ServedQPS, l.P50MS, l.P99MS,
			l.ShedRate*100, l.MissRate*100, l.Errors, tag)
	}
	return b.String()
}
