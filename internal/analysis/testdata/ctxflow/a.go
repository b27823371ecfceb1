// Golden test package for the ctxflow analyzer. `want` comments are
// matched by the harness in harness_test.go.
package ctxflow

import (
	"context"
	"time"
)

type Store struct{}

// FlushCtx threads a context and reports how the flush went.
func (s *Store) FlushCtx(ctx context.Context) error { return nil }

// Exec is the query path's shape: an answer beside the error.
func (s *Store) Exec(ctx context.Context, q int) (int, error) { return q, nil }

// Drain discards the error of a context-taking call — rule 1.
func Drain(ctx context.Context, s *Store) int {
	_ = s.FlushCtx(ctx)      // want "error from FlushCtx is discarded with _"
	n, _ := s.Exec(ctx, 1)   // want "error from Exec is discarded with _: it carries the deadline miss"
	m, err := s.Exec(ctx, 2) // handled: no finding
	if err != nil {
		return n
	}
	return n + m
}

// Probe documents a reviewed best-effort call, suppressed with a reason.
func Probe(ctx context.Context, s *Store) int {
	n, _ := s.Exec(ctx, 3) //hyvet:allow ctxflow warm-up probe: the answer is unused and the next call reports the same failure
	return n
}

// Detached manufactures an ambient context on a request path — rule 2.
func Detached(s *Store) {
	ctx := context.Background() // want "manufactured on a request path: accept and thread the caller's context instead"
	s.FlushCtx(ctx)
}

// detachHelper buries the ambient context one frame down. Its own site is
// rule 2; callers holding a ctx trip rule 3 on the call.
func detachHelper(s *Store) {
	s.FlushCtx(context.TODO()) // want "manufactured on a request path"
}

// Serve holds a ctx and calls the ctx-less helper that manufactures its own
// context — rule 3, via the AmbientCtx fact.
func Serve(ctx context.Context, s *Store) {
	detachHelper(s) // want "call to detachHelper drops the request context: it manufactures an ambient context"
}

// Broadcast fans out blocking sends without ever observing ctx — rule 4.
func Broadcast(ctx context.Context, chans []chan int) {
	for _, ch := range chans { // want "fan-out loop does blocking work .a channel send. without ever observing ctx"
		ch <- 1
	}
}

// BroadcastCtx observes ctx per item — the blessed fan-out (no finding).
func BroadcastCtx(ctx context.Context, chans []chan int) {
	for _, ch := range chans {
		if ctx.Err() != nil {
			return
		}
		ch <- 1
	}
}

// ThreadThrough passes ctx on and its error up — correct (no finding).
func ThreadThrough(ctx context.Context, s *Store) error {
	return s.FlushCtx(ctx)
}

// Retry documents a reviewed bounded backoff loop, suppressed with a reason.
func Retry(ctx context.Context, attempts int) {
	for i := 0; i < attempts; i++ { //hyvet:allow ctxflow bounded retry with a reviewed, sub-deadline backoff budget
		time.Sleep(time.Millisecond)
	}
}
