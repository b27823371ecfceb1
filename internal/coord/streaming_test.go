package coord_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// The streaming differential battery: random append/upsert/out-of-order/
// delete interleavings through the coordinator, with windowed-aggregate
// reads (DownsampleCtx — one fold of the window straight from the owner
// partition's chunks) checked element-wise (1e-9) against a from-scratch
// resample of the raw points AND against a single-engine oracle, at 1, 2,
// and 4 partitions. Every check runs immediately after acknowledged writes,
// so it is also the read-your-writes proof at the coordinator surface.

// dsAggs is the aggregate mix under test: the O(1)-delta family plus the
// rescan-only family.
var dsAggs = []ts.AggFunc{ts.AggMean, ts.AggSum, ts.AggMin, ts.AggMax, ts.AggCount, ts.AggStd}

// checkDownsample compares the coordinator's cached windowed aggregate to a
// from-scratch fold of the raw points and to the oracle's answer.
func checkDownsample(t *testing.T, label string, ora *ttdb.DurablePolyglot, oid ttdb.StationID,
	c *coord.Coordinator, gid ttdb.StationID, start, end, bucket ts.Time) {
	t.Helper()
	for _, agg := range dsAggs {
		got := exec(t, c, ttdb.Downsample(gid, start, end, bucket, agg)).Points
		raw := exec(t, c, ttdb.Q1(gid, start, end)).Points
		want := ts.FromPoints("raw", raw).Resample(bucket, agg).Points()
		cmpPts(t, label+"/scratch", agg, got, want)
		oraPts := exec(t, ora, ttdb.Downsample(oid, start, end, bucket, agg)).Points
		cmpPts(t, label+"/oracle", agg, got, oraPts)
	}
}

func cmpPts(t *testing.T, label string, agg ts.AggFunc, got, want []ts.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s agg=%v: %d vs %d buckets", label, agg, len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || !propEq(got[i].V, want[i].V) {
			t.Fatalf("%s agg=%v bucket %d: got (%d, %v), want (%d, %v)",
				label, agg, i, got[i].T, got[i].V, want[i].T, want[i].V)
		}
	}
}

func TestStreamingAggregatesAcrossPartitions(t *testing.T) {
	for _, parts := range []int{1, 2, 4} {
		parts := parts
		t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + parts)))
			ora := ttdb.NewDurable(ts.Day, io.Discard, io.Discard)
			c, err := coord.NewMem(parts, ts.Day)
			if err != nil {
				t.Fatal(err)
			}

			const nStations = 6
			span := 4 * ts.Day
			var oids, gids []ttdb.StationID
			heads := make([]ts.Time, nStations)
			for i := 0; i < nStations; i++ {
				s := ts.New(ttdb.Metric)
				for h := ts.Time(0); h < 24; h++ {
					s.MustAppend(h*ts.Hour, float64(i)+math.Sin(float64(h)))
				}
				heads[i] = 23 * ts.Hour
				oid, err := ora.IngestStation(fmt.Sprintf("st-%d", i), "d", s.Clone())
				if err != nil {
					t.Fatal(err)
				}
				gid, err := c.IngestStation(fmt.Sprintf("st-%d", i), "d", s)
				if err != nil {
					t.Fatal(err)
				}
				oids = append(oids, oid)
				gids = append(gids, gid)
			}

			// Check every station over the full span before any write, then
			// interleave writes with immediate read-your-writes checks.
			for i := range gids {
				checkDownsample(t, "warm", ora, oids[i], c, gids[i], 0, span, ts.Hour)
			}
			for op := 0; op < 240; op++ {
				i := rng.Intn(nStations)
				var at ts.Time
				switch rng.Intn(4) {
				case 0: // backfill / out-of-order
					at = ts.Time(rng.Int63n(int64(heads[i])))
				case 1: // upsert an existing head timestamp
					at = heads[i]
				default: // tail append
					heads[i] += ts.Time(1+rng.Int63n(int64(2*ts.Hour))) % (span - heads[i] - 1)
					if heads[i] >= span {
						heads[i] = span - 1
					}
					at = heads[i]
				}
				v := rng.Float64() * 50
				if err := ora.AppendPoint(oids[i], at, v); err != nil {
					t.Fatal(err)
				}
				if err := c.AppendPoint(gids[i], at, v); err != nil {
					t.Fatal(err)
				}
				// The acknowledged write must be visible in the aggregate now.
				if op%8 == 0 {
					checkDownsample(t, fmt.Sprintf("op%d", op), ora, oids[i], c, gids[i], 0, span, ts.Hour)
				}
			}
			for i := range gids {
				checkDownsample(t, "final", ora, oids[i], c, gids[i], 0, span, ts.Hour)
				// A narrower, differently-bucketed window is its own cache entry.
				checkDownsample(t, "window", ora, oids[i], c, gids[i], ts.Day, 3*ts.Day, 2*ts.Hour)
			}

			// Deletion drops the station's aggregates everywhere.
			if err := ora.DeleteStation(oids[0]); err != nil {
				t.Fatal(err)
			}
			if err := c.DeleteStation(gids[0]); err != nil {
				t.Fatal(err)
			}
			if pts := exec(t, c, ttdb.Downsample(gids[0], 0, span, ts.Hour, ts.AggMean)).Points; len(pts) != 0 {
				t.Fatalf("deleted station still answers %d buckets", len(pts))
			}

			// Repartitioning moves series between engines; the rebuilt owners'
			// caches must still answer identically.
			if parts > 1 {
				if err := c.Repartition(parts - 1); err != nil {
					t.Fatal(err)
				}
				for i := 1; i < nStations; i++ {
					checkDownsample(t, "repartitioned", ora, oids[i], c, gids[i], 0, span, ts.Hour)
				}
			}
		})
	}
}
