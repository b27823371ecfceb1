package ts

import (
	"fmt"
	"sort"
)

// ContAgg maintains the resampled view of one series incrementally: the
// continuous-aggregate core behind the tsstore write-through resample
// cache. The materialized output is, at every quiescent point,
// element-wise identical to raw.Resample(width, agg) over the observed
// points — not merely within tolerance. Exactness comes from preserving
// fold order:
//
//   - A point past the watermark (a tail append) extends the per-bucket
//     left fold Apply performs: sum/count/mean accumulate the same
//     additions in the same order, min/max continue the same comparison
//     chain (including NaN poisoning), first is fixed, last is replaced.
//     These are the O(1) delta aggregates.
//   - A point at or before the watermark (upsert or out-of-order insert)
//     lands mid-fold, so the owning bucket — and only that bucket — is
//     marked dirty; Finalize replays Apply over the bucket's points in
//     time order, restoring exactness with a bucket-local rescan.
//   - std and median are not decomposable, so any second point in a
//     bucket marks it dirty; a single-point bucket is exact immediately.
//
// ContAgg never reads the underlying store itself: the owner rescans dirty
// buckets (under whatever lock it already holds) and feeds the values back
// through Finalize. Zero-width aggregators ignore all input.
type ContAgg struct {
	width Time
	agg   AggFunc
	out   *Series
	// counts and sums carry the per-bucket fold state parallel to out.
	// sums is the running left fold Apply(AggMean) divides; counts the
	// point count. Both are rebuilt by Finalize for dirty buckets.
	counts []int
	sums   []float64
	wm     Time // largest observed timestamp; valid when hasWM
	hasWM  bool
	dirty  map[Time]struct{}
	one    [1]float64 // scratch for Apply on a single new point
}

// NewContAgg returns an empty aggregator over buckets of the given width.
// name is the raw series name; the materialized view takes the same
// "<name>_per_<width>ms" name Resample produces.
func NewContAgg(name string, width Time, agg AggFunc) *ContAgg {
	return &ContAgg{
		width: width,
		agg:   agg,
		out:   New(fmt.Sprintf("%s_per_%dms", name, width)),
	}
}

// Seed resets the aggregator and materializes raw's resampled view with
// full per-bucket fold state, as if every point had been observed in
// order. The view equals raw.Resample(width, agg) exactly.
func (c *ContAgg) Seed(raw *Series) {
	c.out = New(fmt.Sprintf("%s_per_%dms", raw.name, c.width))
	c.counts = c.counts[:0]
	c.sums = c.sums[:0]
	c.dirty = nil
	c.hasWM = false
	if c.width <= 0 || raw.Len() == 0 {
		return
	}
	start := 0
	cur := BucketStart(raw.times[0], c.width)
	flush := func(hi int) {
		if hi > start {
			vals := raw.vals[start:hi]
			c.out.times = append(c.out.times, cur)
			c.out.vals = append(c.out.vals, c.agg.Apply(vals))
			c.counts = append(c.counts, len(vals))
			c.sums = append(c.sums, sum(vals))
		}
		start = hi
	}
	for i, t := range raw.times {
		if b := BucketStart(t, c.width); b != cur {
			flush(i)
			cur = b
		}
	}
	flush(raw.Len())
	c.wm = raw.times[raw.Len()-1]
	c.hasWM = true
}

// Observe routes one applied write into its bucket. It returns true when
// the materialized value stayed exact (an O(1) delta or an exact new
// bucket), false when the bucket was marked dirty and needs Finalize
// before the next read. The caller must route every point of the
// underlying series (within its window) through Observe — the "missing
// bucket means empty bucket" invariant is what makes backfill into a gap
// exact without a rescan.
func (c *ContAgg) Observe(t Time, v float64) bool {
	if c.width <= 0 {
		return true
	}
	b := BucketStart(t, c.width)
	if !c.hasWM || t > c.wm {
		c.wm, c.hasWM = t, true
		n := c.out.Len()
		if n == 0 || b > c.out.times[n-1] {
			c.appendBucket(b, v)
			return true
		}
		// t > wm implies b >= the last bucket, so this is a tail append
		// into the newest bucket: the delta recurrences continue Apply's
		// fold exactly.
		i := n - 1
		c.counts[i]++
		c.sums[i] += v
		switch c.agg {
		case AggCount:
			c.out.vals[i]++
		case AggSum:
			c.out.vals[i] += v
		case AggMean:
			c.out.vals[i] = c.sums[i] / float64(c.counts[i])
		case AggMin:
			if v < c.out.vals[i] {
				c.out.vals[i] = v
			}
		case AggMax:
			if v > c.out.vals[i] {
				c.out.vals[i] = v
			}
		case AggFirst:
			// first is fixed once the bucket exists
		case AggLast:
			c.out.vals[i] = v
		default: // std, median: not decomposable
			c.markDirty(b)
			return false
		}
		return true
	}
	// Upsert or out-of-order: the point lands mid-fold.
	i := sort.Search(c.out.Len(), func(k int) bool { return c.out.times[k] >= b })
	if i == c.out.Len() || c.out.times[i] != b {
		// The bucket was empty, so the new point is its only point and
		// Apply over a single value is exact.
		c.insertBucket(i, b, v)
		return true
	}
	c.markDirty(b)
	return false
}

// appendBucket materializes a new trailing bucket holding exactly v.
func (c *ContAgg) appendBucket(b Time, v float64) {
	c.one[0] = v
	c.out.times = append(c.out.times, b)
	c.out.vals = append(c.out.vals, c.agg.Apply(c.one[:]))
	c.counts = append(c.counts, 1)
	c.sums = append(c.sums, v)
}

// insertBucket materializes a new bucket at position i holding exactly v.
func (c *ContAgg) insertBucket(i int, b Time, v float64) {
	c.one[0] = v
	c.out.times = append(c.out.times, 0)
	copy(c.out.times[i+1:], c.out.times[i:])
	c.out.times[i] = b
	c.out.vals = append(c.out.vals, 0)
	copy(c.out.vals[i+1:], c.out.vals[i:])
	c.out.vals[i] = c.agg.Apply(c.one[:])
	c.counts = append(c.counts, 0)
	copy(c.counts[i+1:], c.counts[i:])
	c.counts[i] = 1
	c.sums = append(c.sums, 0)
	copy(c.sums[i+1:], c.sums[i:])
	c.sums[i] = v
}

func (c *ContAgg) markDirty(b Time) {
	if c.dirty == nil {
		c.dirty = make(map[Time]struct{})
	}
	c.dirty[b] = struct{}{}
}

// HasDirty reports whether any bucket awaits Finalize.
func (c *ContAgg) HasDirty() bool { return len(c.dirty) > 0 }

// DirtyBuckets returns the bucket starts awaiting Finalize in ascending
// order (deterministic for callers that fold over them).
func (c *ContAgg) DirtyBuckets() []Time {
	if len(c.dirty) == 0 {
		return nil
	}
	bs := make([]Time, 0, len(c.dirty))
	for b := range c.dirty {
		bs = append(bs, b)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return bs
}

// Finalize recomputes one dirty bucket from vals — the bucket's point
// values in time order, as rescanned by the owner. An empty rescan removes
// the bucket (the owner deleted its points).
func (c *ContAgg) Finalize(b Time, vals []float64) {
	delete(c.dirty, b)
	i := sort.Search(c.out.Len(), func(k int) bool { return c.out.times[k] >= b })
	present := i < c.out.Len() && c.out.times[i] == b
	if len(vals) == 0 {
		if present {
			c.out.times = append(c.out.times[:i], c.out.times[i+1:]...)
			c.out.vals = append(c.out.vals[:i], c.out.vals[i+1:]...)
			c.counts = append(c.counts[:i], c.counts[i+1:]...)
			c.sums = append(c.sums[:i], c.sums[i+1:]...)
		}
		return
	}
	if !present {
		c.insertBucket(i, b, vals[0])
	}
	c.out.vals[i] = c.agg.Apply(vals)
	c.counts[i] = len(vals)
	c.sums[i] = sum(vals)
}

// View returns the live materialized series. The caller owns the
// aggregator and must not read it while buckets are dirty or mutate the
// result; clone it for an owned copy.
func (c *ContAgg) View() *Series { return c.out }
