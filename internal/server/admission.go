package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// shedError is an admission refusal: the request was not executed and the
// client should retry after the hint (or not at all for Status 4xx misuse).
// It is surfaced to clients as Status + Retry-After headers.
type shedError struct {
	Status     int           // 429 or 503
	Reason     string        // machine-readable code ("queue_full", ...)
	RetryAfter time.Duration // backoff hint; 0 means "no hint"
}

func (e *shedError) Error() string {
	return fmt.Sprintf("server: shed (%s), retry after %v", e.Reason, e.RetryAfter)
}

// admission is the controller: a global slot semaphore, a bounded wait
// queue in front of it, and per-tenant caps consulted before the global
// queue so one tenant's burst cannot fill the shared queue with requests
// that would only be refused later.
type admission struct {
	limits Limits
	slots  chan struct{} // MaxConcurrent execution slots
	o      *serverObs

	mu     sync.Mutex
	queued int // requests currently waiting for a slot
}

func newAdmission(l Limits, o *serverObs) *admission {
	return &admission{limits: l, slots: make(chan struct{}, l.MaxConcurrent), o: o}
}

// admit runs the admission sequence for one request of tenant t under the
// request context. On success it returns a release func that must be called
// exactly once when the request finishes. On refusal it returns a
// *shedError; on a context expiring while queued it returns the context
// error (accounted as a deadline miss by the caller).
func (a *admission) admit(ctx context.Context, t *tenant) (func(), error) {
	// Per-tenant token bucket first: rate refusals are the cheapest and
	// should never consume queue capacity.
	if ok, wait := t.bucket.take(time.Now()); !ok {
		a.o.shedRate.Inc()
		return nil, &shedError{Status: http.StatusTooManyRequests, Reason: "rate_limited", RetryAfter: wait}
	}
	// Per-tenant concurrency cap: refuse rather than queue, so a stalled
	// tenant backs its own clients off while others keep flowing.
	select {
	case t.sem <- struct{}{}:
	default:
		a.o.shedTenant.Inc()
		return nil, &shedError{Status: http.StatusTooManyRequests, Reason: "tenant_busy", RetryAfter: 20 * time.Millisecond}
	}
	releaseTenant := func() { <-t.sem }

	// Global slot, with a bounded wait queue in front.
	select {
	case a.slots <- struct{}{}:
	default:
		a.mu.Lock()
		if a.queued >= a.limits.MaxQueue {
			depth := a.queued
			a.mu.Unlock()
			releaseTenant()
			a.o.shedQueue.Inc()
			// The hint scales with the backlog: a deeper queue means a
			// longer wait before capacity frees up.
			hint := 25*time.Millisecond + time.Duration(depth)*2*time.Millisecond
			return nil, &shedError{Status: http.StatusServiceUnavailable, Reason: "queue_full", RetryAfter: hint}
		}
		a.queued++
		a.o.queueDepth.Add(1)
		a.mu.Unlock()

		select {
		case a.slots <- struct{}{}:
			a.unqueue()
		case <-ctx.Done():
			a.unqueue()
			releaseTenant()
			return nil, ctx.Err()
		}
	}

	a.o.admitted.Inc()
	a.o.inflight.Add(1)
	return func() {
		a.o.inflight.Add(-1)
		<-a.slots
		releaseTenant()
	}, nil
}

// unqueue leaves the wait queue. The gauge moves under the lock, as it
// does on entry, so it never reads above MaxQueue while a leaver and an
// arrival cross.
func (a *admission) unqueue() {
	a.mu.Lock()
	a.queued--
	a.o.queueDepth.Add(-1)
	a.mu.Unlock()
}

// bucket is a token-bucket rate limiter. A nil bucket never refuses —
// the unlimited configuration.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
}

// newBucket returns a limiter at rate req/s with the given burst, or nil
// (unlimited) when rate <= 0. The bucket starts full.
func newBucket(rate, burst float64) *bucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &bucket{rate: rate, burst: burst, tokens: burst}
}

// take consumes one token if available; otherwise it reports how long until
// one accrues — the Retry-After hint.
func (b *bucket) take(now time.Time) (bool, time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}
