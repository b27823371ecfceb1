// The serve subcommand: the hardened network query service (internal/server,
// docs/SERVICE.md) over a durable store directory, with a SIGINT/SIGTERM
// handler that performs the graceful-stop contract — shed new requests, drain
// in-flight ones, flush every tenant's WAL group writers, close the stores.
//
// `serve -smoke` is the CI smoke stage (make servesmoke): a self-contained
// run on a random loopback port, at one partition and at two, that exercises
// the client mix the service contract promises to survive — durable ingest,
// a query, one forced shed with Retry-After, one deadline-exceeded request —
// then stops gracefully and proves, through a second server over the same
// directory, that the acknowledged writes recover from disk.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/server"
	"hygraph/internal/server/client"
	"hygraph/internal/ts"
)

// runServe listens on addr and serves tenants out of dir until a signal
// arrives, then drains within the drain bound. Each tenant is served over
// that many partitions behind the scatter-gather coordinator.
func runServe(addr, dir string, rate float64, maxConc, maxQueue, workers, partitions int, drain time.Duration, reg *obs.Registry, dbg *obs.DebugServer) {
	srv, err := server.New(server.Config{
		Limits:     server.Limits{MaxConcurrent: maxConc, MaxQueue: maxQueue, TenantRate: rate},
		Workers:    workers,
		Backend:    &server.DirBackend{Root: dir},
		Partitions: partitions,
		Obs:        reg,
	})
	if err != nil {
		fail(err.Error())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err.Error())
	}
	lim := srv.Limits()
	fmt.Fprintf(os.Stderr, "hygraph serve: http://%s/v1/ over %s (maxconc %d, queue %d, rate %s)\n",
		ln.Addr(), dir, lim.MaxConcurrent, lim.MaxQueue, rateString(lim.TenantRate))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "hygraph serve: %s — draining (bound %s)\n", s, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(ctx)
		if dbg != nil {
			_ = dbg.Shutdown(ctx)
		}
		if serr := <-done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if err != nil {
			fail("shutdown: " + err.Error())
		}
		fmt.Fprintln(os.Stderr, "hygraph serve: drained, WALs flushed")
	case err := <-done:
		// The listener died without a signal — that is a failure, not a stop.
		fail(err.Error())
	}
}

func rateString(r float64) string {
	if r <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%g/s", r)
}

// runServeSmoke runs the smoke at one partition and at two, each under its
// own root in dir, and exits non-zero on any deviation from the contract.
func runServeSmoke(dir string) {
	for _, parts := range []int{1, 2} {
		serveSmoke(filepath.Join(dir, fmt.Sprintf("p%d", parts)), parts)
	}
}

// smokeServer is one live server of the smoke over a directory.
type smokeServer struct {
	srv  *server.Server
	done chan error
	cl   *client.Client
	base string
}

// startSmoke serves root over parts partitions on a random loopback port.
func startSmoke(root string, parts int, lim server.Limits, reg *obs.Registry) *smokeServer {
	srv, err := server.New(server.Config{
		Limits:     lim,
		Backend:    &server.DirBackend{Root: root},
		Partitions: parts,
		Obs:        reg,
	})
	if err != nil {
		fail(err.Error())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err.Error())
	}
	s := &smokeServer{srv: srv, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- srv.Serve(ln) }()
	if s.cl, err = client.New(client.Config{Base: s.base}); err != nil {
		fail(err.Error())
	}
	return s
}

// stop shuts the server down gracefully.
func (s *smokeServer) stop(ctx context.Context) {
	if err := s.srv.Shutdown(ctx); err != nil {
		fail("smoke shutdown: " + err.Error())
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("smoke serve: " + err.Error())
	}
}

// serveSmoke drives one live server over parts partitions through the
// client mix the CI gate requires, stops it, and checks recovery through a
// second server over the same root.
func serveSmoke(root string, parts int) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// One execution slot and a one-deep queue make the forced shed
	// deterministic: with the handler held, the third arrival must shed. The
	// tenant cap is left loose so the shed is the global queue bound, the
	// contract the stage is checking.
	s := startSmoke(root, parts, server.Limits{MaxConcurrent: 1, MaxQueue: 1, TenantConcurrent: 8}, obs.New())
	fmt.Printf("smoke: %d partition(s), serving on %s over %s\n", parts, s.base, root)

	// 1. Durable ingest (idempotency-keyed) + append + query.
	pts := []client.Point{{T: 0, V: 4}, {T: 1, V: 8}}
	id, err := s.cl.IngestStation(ctx, "smoke", "st-0", "north", pts, "smoke-st-0")
	if err != nil {
		fail("smoke ingest: " + err.Error())
	}
	if err := s.cl.AppendPoint(ctx, "smoke", id, 2, 12); err != nil {
		fail("smoke append: " + err.Error())
	}
	station := url.Values{"station": {strconv.FormatUint(uint64(id), 10)}}
	checkQ3 := func(cl *client.Client, when string) {
		qr, err := cl.Query(ctx, "smoke", "Q3", station)
		if err != nil {
			fail("smoke " + when + " Q3: " + err.Error())
		}
		if string(qr.Result) != "8" {
			fail(fmt.Sprintf("smoke %s: Q3 mean = %s, want 8", when, qr.Result))
		}
	}
	checkQ3(s.cl, "live")
	fmt.Printf("smoke: ingested station %d, Q3 mean over {4,8,12} = 8\n", id)

	// 2. Forced shed + deadline-exceeded. Hold every handler 200ms (delay
	// only — Nth pushed out of reach keeps the error leg of the fault
	// disarmed) and fire three concurrent queries: one runs, one queues,
	// one sheds. A fourth request with a 1ms budget must come back 504.
	q3 := s.base + "/v1/tenants/smoke/query?name=Q3&" + station.Encode()
	faults.Enable(server.FaultHandler, faults.Spec{Delay: 200 * time.Millisecond, Nth: 1 << 30})
	raw := &http.Client{}
	statuses := make([]int, 3)
	retryAfter := make([]string, 3)
	var wg sync.WaitGroup
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := raw.Get(q3)
			if err != nil {
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
		time.Sleep(20 * time.Millisecond) // arrival order: run, queue, shed
	}
	wg.Wait()
	sheds, oks := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			oks++
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			if retryAfter[i] == "" {
				fail(fmt.Sprintf("smoke shed: status %d without Retry-After", st))
			}
			sheds++
		}
	}
	if sheds < 1 || oks < 1 {
		fail(fmt.Sprintf("smoke shed: statuses %v, want ≥1 ok and ≥1 shed", statuses))
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, q3, nil)
	req.Header.Set("X-Timeout-MS", "1")
	resp, err := raw.Do(req)
	if err != nil {
		fail("smoke deadline request: " + err.Error())
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		fail(fmt.Sprintf("smoke deadline: status %d, want 504", resp.StatusCode))
	}
	faults.Reset()
	fmt.Printf("smoke: statuses %v (%d shed with Retry-After), 1ms-budget request → 504\n", statuses, sheds)

	// 3. Graceful stop, then prove the acknowledged writes recover from the
	// directory alone: a second server opens the tenant the way the first
	// did and answers from what it recovered.
	s.stop(ctx)
	again := startSmoke(root, parts, server.Limits{}, nil)
	defer again.stop(ctx)
	qr, err := again.cl.Query(ctx, "smoke", "Q1", url.Values{
		"station": station["station"], "start": {"0"}, "end": {"3"}})
	if err != nil {
		fail("smoke recovery Q1: " + err.Error())
	}
	var got []ts.Point
	if err := json.Unmarshal(qr.Result, &got); err != nil || len(got) != 3 {
		fail(fmt.Sprintf("smoke recovery: %d points recovered (%v), want 3", len(got), err))
	}
	checkQ3(again.cl, "recovery")
	fmt.Println("smoke: graceful stop + recovery check PASS")
}
