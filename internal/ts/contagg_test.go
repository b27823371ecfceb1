package ts

import (
	"math"
	"math/rand"
	"testing"
)

// finalizeDirty replays the owner's side of the ContAgg contract: rescan
// each dirty bucket from the authoritative series and feed the values back.
func finalizeDirty(c *ContAgg, raw *Series) {
	for _, b := range c.DirtyBuckets() {
		view := raw.SliceView(b, b+c.width)
		vals := make([]float64, 0, view.Len())
		for i := 0; i < view.Len(); i++ {
			vals = append(vals, view.ValueAt(i))
		}
		c.Finalize(b, vals)
	}
}

// sameSeries is element-wise equality with NaN == NaN, plus the name.
func sameSeries(a, b *Series) bool {
	if a.Name() != b.Name() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.TimeAt(i) != b.TimeAt(i) {
			return false
		}
		av, bv := a.ValueAt(i), b.ValueAt(i)
		if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			return false
		}
	}
	return true
}

// The incremental view must stay bit-identical to a from-scratch Resample
// across every aggregate under random interleavings of tail appends,
// upserts, and out-of-order inserts (including NaN values).
func TestContAggMatchesResample(t *testing.T) {
	aggs := []AggFunc{AggMean, AggSum, AggMin, AggMax, AggCount, AggFirst, AggLast, AggStd, AggMedian}
	for _, agg := range aggs {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(100*int(agg) + trial)))
			width := Time(10 + rng.Intn(20))
			raw := New("m@1")
			c := NewContAgg("m@1", width, agg)
			deltas, rescans := 0, 0
			for op := 0; op < 300; op++ {
				var pt Time
				switch rng.Intn(4) {
				case 0, 1: // tail append
					pt = raw.End() + Time(1+rng.Intn(15))
				case 2: // upsert of an existing point
					if raw.Len() == 0 {
						pt = 0
					} else {
						pt = raw.TimeAt(rng.Intn(raw.Len()))
					}
				default: // out-of-order insert anywhere seen so far
					pt = Time(rng.Intn(int(raw.End() + 2)))
				}
				v := rng.Float64() * 100
				if rng.Intn(20) == 0 {
					v = math.NaN()
				}
				raw.Upsert(pt, v)
				if c.Observe(pt, v) {
					deltas++
				} else {
					rescans++
				}
				if op%37 == 0 {
					finalizeDirty(c, raw)
					if got, want := c.View(), raw.Resample(width, agg); !sameSeries(got, want) {
						t.Fatalf("agg=%v trial=%d op=%d: view diverged from Resample\n got %v\nwant %v",
							agg, trial, op, got, want)
					}
				}
			}
			finalizeDirty(c, raw)
			if got, want := c.View(), raw.Resample(width, agg); !sameSeries(got, want) {
				t.Fatalf("agg=%v trial=%d: final view diverged", agg, trial)
			}
			if deltas == 0 {
				t.Fatalf("agg=%v trial=%d: no O(1) deltas applied", agg, trial)
			}
			switch agg {
			case AggStd, AggMedian:
				if rescans == 0 {
					t.Fatalf("agg=%v trial=%d: non-decomposable agg never rescanned", agg, trial)
				}
			}
		}
	}
}

// Seeding from an existing series must equal Resample and leave the
// aggregator able to continue with exact deltas.
func TestContAggSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	raw := New("avail@3")
	for i := 0; i < 200; i++ {
		raw.MustAppend(Time(i*7), rng.Float64()*50)
	}
	for _, agg := range []AggFunc{AggMean, AggMin, AggStd} {
		c := NewContAgg("ignored", 60, agg)
		c.Seed(raw)
		if !sameSeries(c.View(), raw.Resample(60, agg)) {
			t.Fatalf("agg=%v: seeded view != Resample", agg)
		}
		if !c.hasWM || c.wm != raw.End() {
			t.Fatalf("agg=%v: watermark %v/%v, want %v", agg, c.wm, c.hasWM, raw.End())
		}
		// Continue past the seed.
		for i := 0; i < 50; i++ {
			pt := raw.End() + Time(1+rng.Intn(9))
			v := rng.Float64() * 50
			raw.Upsert(pt, v)
			c.Observe(pt, v)
		}
		finalizeDirty(c, raw)
		if !sameSeries(c.View(), raw.Resample(60, agg)) {
			t.Fatalf("agg=%v: post-seed continuation diverged", agg)
		}
	}
}

// A backfill into a bucket with no prior points is exact without a rescan;
// an empty Finalize removes a bucket whose points were deleted.
func TestContAggGapAndEmptyFinalize(t *testing.T) {
	c := NewContAgg("m", 10, AggSum)
	c.Observe(5, 1)
	c.Observe(35, 2)
	if !c.Observe(15, 3) { // gap bucket [10,20): single point, exact
		t.Fatal("gap backfill should not need a rescan")
	}
	if c.HasDirty() {
		t.Fatal("no bucket should be dirty")
	}
	want := New("w")
	want.MustAppend(0, 1)
	want.MustAppend(10, 3)
	want.MustAppend(30, 2)
	got := c.View()
	if got.Len() != 3 {
		t.Fatalf("got %d buckets", got.Len())
	}
	for i := 0; i < 3; i++ {
		if got.TimeAt(i) != want.TimeAt(i) || got.ValueAt(i) != want.ValueAt(i) {
			t.Fatalf("bucket %d: got %v want %v", i, got.At(i), want.At(i))
		}
	}
	c.Finalize(10, nil)
	if c.View().Len() != 2 {
		t.Fatalf("empty finalize did not remove the bucket: %d", c.View().Len())
	}
	// Zero-width aggregators ignore input.
	z := NewContAgg("m", 0, AggSum)
	z.Observe(1, 1)
	if z.View().Len() != 0 {
		t.Fatal("zero-width aggregator materialized a bucket")
	}
}
