// Package faults is a process-wide fault-injection registry. Storage and
// ingest code paths consult named fault points (Check) at the places where a
// production deployment can fail — a log append, a flush, the gap between the
// graph-store write and the time-series write — and tests arm those points
// (Enable) to deterministically kill a write mid-flight, inject transient
// errors for retry logic, or add latency.
//
// The registry is intentionally tiny and dependency-free so hot paths can
// call Check unconditionally: when nothing is armed the check is a single
// atomic load.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Spec describes how an armed fault point fires.
type Spec struct {
	// Err is the error injected when the point fires. When nil a generic
	// "faults: injected error at <point>" error is used.
	Err error
	// Transient wraps the injected error so IsTransient reports true,
	// modelling a retryable condition (lock timeout, throttled write).
	Transient bool
	// Nth makes the point start firing on the Nth visit (1-based).
	// Zero behaves like 1: fire from the first visit.
	Nth int
	// Count bounds how many times the point fires (0 = keep firing forever,
	// which models a store that goes down and stays down).
	Count int
	// P, when > 0, makes firing probabilistic with probability P per visit,
	// using Seed for a deterministic sequence. When Seed is zero the
	// sequence is derived from the package base seed (see Seed) and the
	// point name, so schedules stay reproducible without per-spec seeds.
	// Nth/Count still apply.
	P    float64
	Seed int64
	// Delay is slept on every visit (latency injection), independently of
	// whether an error fires.
	Delay time.Duration
}

// point is the armed state of one fault point.
type point struct {
	spec  Spec
	hits  int
	fired int
	rng   *rand.Rand
}

var (
	mu     sync.Mutex
	armed  = map[string]*point{}
	hits   = map[string]int{}
	active atomic.Int32 // number of armed points; fast-path gate

	// baseSeed feeds probabilistic points whose Spec leaves Seed zero; each
	// point mixes in a hash of its name so distinct points get distinct but
	// reproducible sequences. Guarded by mu, like every *rand.Rand here:
	// Check only draws from a point's rng while holding mu, so the registry
	// never touches the global math/rand source and is race-free.
	baseSeed int64 = 1
)

// Seed sets the base seed used by probabilistic points that do not carry an
// explicit Spec.Seed. Points armed afterwards derive their sequence from it;
// already-armed points keep theirs. The default base seed is 1.
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	baseSeed = seed
}

// pointSeed resolves the seed for a point: an explicit Spec.Seed wins,
// otherwise the base seed is mixed with an FNV-1a hash of the point name.
func pointSeed(name string, spec Spec) int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return baseSeed ^ int64(h)
}

// TransientError marks an injected error as retryable.
type TransientError struct{ Cause error }

func (e *TransientError) Error() string { return "transient: " + e.Cause.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Cause }

// IsTransient reports whether any error in err's chain is a TransientError.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// Enable arms a fault point. Re-arming an armed point resets its counters.
func Enable(name string, spec Spec) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := armed[name]; !ok {
		active.Add(1)
	}
	p := &point{spec: spec}
	if spec.P > 0 {
		p.rng = rand.New(rand.NewSource(pointSeed(name, spec)))
	}
	armed[name] = p
}

// Disable disarms a fault point. Hit counts survive until Reset.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := armed[name]; ok {
		delete(armed, name)
		active.Add(-1)
	}
}

// Reset disarms every point and clears all hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Add(-int32(len(armed)))
	armed = map[string]*point{}
	hits = map[string]int{}
}

// Hits returns how many times a point has been visited (armed or not, since
// the last Reset). Visits are only counted while at least one point is armed,
// keeping the disarmed fast path allocation- and lock-free.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	return hits[name]
}

// Check is called by instrumented code at a fault point. It returns the
// injected error when the point is armed and fires, after applying any
// configured latency. When nothing is armed anywhere it is a single atomic
// load.
func Check(name string) error {
	err, delay := check(name)
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// CheckCtx is Check with context-aware latency injection: a configured
// Delay is waited out under the context, so a cancelled request or a
// draining server stops waiting early and gets the context's error instead
// of sleeping through the full injected latency. Server-side fault points
// (slow-handler injection under a per-request deadline) use this form; with
// no armed Delay it behaves exactly like Check. A nil context is allowed
// and degrades to a plain sleep.
func CheckCtx(ctx context.Context, name string) error {
	err, delay := check(name)
	if delay > 0 {
		if ctx == nil {
			time.Sleep(delay)
		} else {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if err == nil && ctx != nil {
		err = ctx.Err()
	}
	return err
}

// check evaluates the fault point and returns the injected error plus any
// configured latency for the caller to apply outside the registry lock.
func check(name string) (error, time.Duration) {
	if active.Load() == 0 {
		return nil, 0
	}
	mu.Lock()
	hits[name]++
	p, ok := armed[name]
	if !ok {
		mu.Unlock()
		return nil, 0
	}
	p.hits++
	var delay time.Duration
	err := func() error {
		delay = p.spec.Delay
		nth := p.spec.Nth
		if nth <= 0 {
			nth = 1
		}
		if p.hits < nth {
			return nil
		}
		if p.spec.Count > 0 && p.fired >= p.spec.Count {
			return nil
		}
		if p.spec.P > 0 && p.rng.Float64() >= p.spec.P {
			return nil
		}
		p.fired++
		e := p.spec.Err
		if e == nil {
			e = fmt.Errorf("faults: injected error at %s", name)
		}
		if p.spec.Transient {
			return &TransientError{Cause: e}
		}
		return e
	}()
	mu.Unlock()
	return err, delay
}
