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
// chaos battery's lever for proving degraded answers instead of hangs.
func FaultPartition(i int) string {
	return "coord.partition." + strconv.Itoa(i)
}

// PartialError reports a scatter that lost one or more partitions. The
// answer it accompanies is a typed partial: everything the answering
// partitions contributed, with the failed partitions' shares degraded the
// same way the durable layer degrades without its TS store (entity sets
// survive with zero aggregates). It unwraps to ttdb.ErrDegraded and every
// per-partition cause, so errors.Is works for both.
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

// scatterLocked fans fn out to the given partitions, one goroutine per
// fragment, joined before return (no goroutine outlives the call). Each
// fragment first consults its partition's fault point; failures land in the
// returned PartialError (nil when every partition answered). Caller holds at
// least the read lock, so the partition set is stable for the duration.
func (c *Coordinator) scatterLocked(ctx context.Context, op ttdb.Op, parts []int, fn func(part int) error) *PartialError {
	span := c.obs.reg.Tracer().Start("coord.scatter." + op.String())
	defer span.End()
	c.obs.scatters.Inc()
	c.obs.fragments.Add(int64(len(parts)))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			if err := faults.CheckCtx(ctx, FaultPartition(p)); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	perr := &PartialError{Query: op.String(), Failed: map[int]error{}}
	for i, p := range parts {
		if errs[i] != nil {
			perr.Failed[p] = errs[i]
		} else {
			perr.Answered = append(perr.Answered, p)
		}
	}
	if len(perr.Failed) == 0 {
		return nil
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
