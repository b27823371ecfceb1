package coord

import (
	"context"
	"io"
	"math"
	"slices"
	"testing"

	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// A partition's summary rows ascend by gid for every station the
// coordinator placed, but not once Attach adopts an untagged station under a
// gid below one a tagged station written before it holds. summariesLocked
// sorts that run before merging: Q4 must list every station in gid order,
// each with its own summary's mean.
func TestSummariesMergeSortsNonAscendingRun(t *testing.T) {
	series := func(i int) *ts.Series {
		s := ts.New(ttdb.Metric)
		for h := ts.Time(0); h < 48; h++ {
			s.MustAppend(h*ts.Hour, float64(i)+math.Sin(float64(h)))
		}
		return s
	}
	ingest := func(d *ttdb.DurablePolyglot, gid int) {
		if _, err := d.IngestStation(uint64(gid), "tagged", "d", series(gid)); err != nil {
			t.Fatal(err)
		}
	}
	// Partition 0 writes gid 5, then an untagged station on node 1 (adopted
	// as gid 1), then gid 7: its run is 5, 1, 7.
	p0 := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	ingest(p0, 5)
	eng := p0.Engine()
	node := eng.G.CreateNode("Station")
	if err := eng.G.SetNodeProp(node, "name", graphstore.StrVal("untagged")); err != nil {
		t.Fatal(err)
	}
	eng.T.InsertSeries(tsstore.SeriesKey{Entity: uint32(node), Metric: ttdb.Metric}, series(1))
	ingest(p0, 7)
	p1 := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	ingest(p1, 2)
	ingest(p1, 3)
	c, err := Attach([]*ttdb.DurablePolyglot{p0, p1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gid := c.local2g[0][node]; gid != 1 {
		t.Fatalf("untagged node %d adopted as gid %d, want 1", node, gid)
	}

	q := ttdb.Q4(0, 48*ts.Hour)
	frag, err := p0.EntitySummariesCtx(context.Background(), q.Start, q.End)
	if err != nil {
		t.Fatal(err)
	}
	var run []ttdb.StationID
	for _, e := range frag {
		run = append(run, c.local2g[0][ttdb.StationID(e.Entity)])
	}
	if slices.IsSorted(run) {
		t.Fatalf("partition 0's run %v ascends; the case needs one that does not", run)
	}

	res, err := c.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := []ttdb.StationID{1, 2, 3, 5, 7}; !slices.Equal(res.IDs, want) {
		t.Fatalf("Q4 rows by gid %v, want the sort %v", res.IDs, want)
	}
	for i, gid := range res.IDs {
		m := c.meta[gid]
		own := c.parts[m.part].Engine().T.Aggregate(tsstore.SeriesKey{Entity: uint32(m.local), Metric: ttdb.Metric}, q.Start, q.End)
		if math.Float64bits(res.Vals[i]) != math.Float64bits(own.Mean()) {
			t.Fatalf("Q4 station %d: %v, the station's own mean %v", gid, res.Vals[i], own.Mean())
		}
		if want := series(int(gid)).AggregateRange(ts.AggMean, q.Start, q.End); math.Abs(res.Vals[i]-want) > 1e-9 {
			t.Fatalf("Q4 station %d: %v, want %v", gid, res.Vals[i], want)
		}
	}
}
