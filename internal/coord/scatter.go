package coord

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
)

// FaultPartition names the fault point guarding every fragment sent to
// partition i ("coord.partition.N"). Arming it makes that partition fail its
// fragments, which the coordinator turns into a typed PartialError — the
// chaos battery's lever for proving degraded answers instead of hangs. A
// coordinator builds each partition's name once, when it takes the partition.
func FaultPartition(i int) string {
	return "coord.partition." + strconv.Itoa(i)
}

// PartialError reports a scatter that lost one or more partitions. The
// answer it accompanies is a typed partial: everything the answering
// partitions contributed, with the failed partitions' shares degraded to
// what the coordinator's placement map still knows (entity sets survive with
// zero aggregates). It unwraps to ttdb.ErrDegraded and every per-partition
// cause, so errors.Is works for both.
type PartialError struct {
	Query    string
	Answered []int         // partitions that contributed, ascending
	Failed   map[int]error // partition index -> cause
}

// Error renders the accounting: which query, who answered, who failed and why.
func (e *PartialError) Error() string {
	parts := make([]int, 0, len(e.Failed))
	for p := range e.Failed {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	var b strings.Builder
	fmt.Fprintf(&b, "coord: %s degraded: partitions %v answered, ", e.Query, e.Answered)
	for i, p := range parts {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "partition %d failed: %v", p, e.Failed[p])
	}
	return b.String()
}

// Unwrap lets errors.Is match ttdb.ErrDegraded and each partition's cause.
func (e *PartialError) Unwrap() []error {
	parts := make([]int, 0, len(e.Failed))
	for p := range e.Failed {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	out := make([]error, 0, len(parts)+1)
	out = append(out, ttdb.ErrDegraded)
	for _, p := range parts {
		out = append(out, e.Failed[p])
	}
	return out
}

// coordObs holds the coordinator's metric handles; the zero value (all nil)
// is the disabled state, matching the repo's nil-safe handle convention.
type coordObs struct {
	reg          *obs.Registry
	ingests      *obs.Counter // stations placed
	replicas     *obs.Counter // boundary vertices materialized
	crossEdges   *obs.Counter // cross-partition trips mirrored
	repartitions *obs.Counter // Repartition runs
	scatters     *obs.Counter // scatter rounds issued
	fragments    *obs.Counter // partition fragments dispatched
	partials     *obs.Counter // scatters that lost at least one partition
}

// Instrument attaches fan-out metrics (and, via the registry's tracer,
// per-query scatter spans) to the coordinator and cascades to every
// partition. A nil registry detaches instrumentation.
func (c *Coordinator) Instrument(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.parts {
		p.Instrument(r)
	}
	if r == nil {
		c.obs = coordObs{}
		return
	}
	c.obs = coordObs{
		reg:          r,
		ingests:      r.Counter("coord.ingest.stations"),
		replicas:     r.Counter("coord.boundary.replicas"),
		crossEdges:   r.Counter("coord.trips.cross"),
		repartitions: r.Counter("coord.repartitions"),
		scatters:     r.Counter("coord.scatter.calls"),
		fragments:    r.Counter("coord.scatter.fragments"),
		partials:     r.Counter("coord.scatter.partials"),
	}
}

// scatterSpans holds each operation's scatter span name, built once rather
// than per call.
var scatterSpans = func() []string {
	names := make([]string, ttdb.OpDownsample+1)
	for op := ttdb.OpQ1; op <= ttdb.OpDownsample; op++ {
		names[op] = "coord.scatter." + op.String()
	}
	return names
}()

// startScatterLocked opens the scatter span and counts one scatter round of
// n fragments.
func (c *Coordinator) startScatterLocked(op ttdb.Op, n int) *obs.Span {
	c.obs.scatters.Inc()
	c.obs.fragments.Add(int64(n))
	return c.obs.reg.Tracer().Start(scatterSpans[op])
}

// scatterLocked fans fn out to the given partitions and joins before return
// (no goroutine outlives the call): a single fragment runs on the calling
// goroutine, several run one goroutine each. Each fragment first consults its
// partition's fault point; failures land in the returned PartialError (nil
// when every partition answered). Caller holds at least the read lock, so
// the partition set is stable for the duration.
func (c *Coordinator) scatterLocked(ctx context.Context, op ttdb.Op, parts []int, fn func(part int) error) *PartialError {
	span := c.startScatterLocked(op, len(parts))
	defer span.End()
	if len(parts) == 1 {
		if err := c.fragment(ctx, parts[0], fn); err != nil {
			return c.partialLocked(op, parts, []error{err})
		}
		return nil
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			errs[i] = c.fragment(ctx, p, fn)
		}(i, p)
	}
	wg.Wait()
	return c.partialLocked(op, parts, errs)
}

// fragment runs one partition's fragment behind its fault point.
func (c *Coordinator) fragment(ctx context.Context, p int, fn func(part int) error) error {
	if err := faults.CheckCtx(ctx, c.faults[p]); err != nil {
		return err
	}
	return fn(p)
}

// partialLocked accounts a finished scatter: nil when every fragment
// answered, otherwise a PartialError naming who answered and who failed.
// Nothing is allocated on the answered path.
func (c *Coordinator) partialLocked(op ttdb.Op, parts []int, errs []error) *PartialError {
	var perr *PartialError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if perr == nil {
			perr = &PartialError{Query: op.String(), Failed: map[int]error{}}
		}
		perr.Failed[parts[i]] = err
	}
	if perr == nil {
		return nil
	}
	for i, p := range parts {
		if errs[i] == nil {
			perr.Answered = append(perr.Answered, p)
		}
	}
	c.obs.partials.Inc()
	return perr
}

// allParts lists every partition index, the scatter set of the global
// queries. Caller holds at least the read lock.
func (c *Coordinator) allPartsLocked() []int {
	out := make([]int, len(c.parts))
	for i := range out {
		out[i] = i
	}
	return out
}
