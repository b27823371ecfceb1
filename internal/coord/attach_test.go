package coord_test

import (
	"context"
	"io"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// untaggedStation writes a Station node without a gid, and its series, into
// the engine's stores — what a single-engine server wrote for every station,
// and what a crash between an older coordinator's ingest and its gid tag
// left behind. It returns the node id.
func untaggedStation(t *testing.T, d *ttdb.DurablePolyglot, name string, i int) ttdb.StationID {
	t.Helper()
	eng := d.Engine()
	id := eng.G.CreateNode("Station")
	if err := eng.G.SetNodeProp(id, "name", graphstore.StrVal(name)); err != nil {
		t.Fatal(err)
	}
	if err := eng.G.SetNodeProp(id, "district", graphstore.StrVal("d-u")); err != nil {
		t.Fatal(err)
	}
	eng.T.InsertSeries(tsstore.SeriesKey{Entity: uint32(id), Metric: ttdb.Metric}, propSeries(i))
	return id
}

// stationIDs lists the coordinator's stations by id, from Q4.
func stationIDs(t *testing.T, c *coord.Coordinator) map[ttdb.StationID]bool {
	t.Helper()
	res := exec(t, c, ttdb.Q4(0, propSpan))
	out := map[ttdb.StationID]bool{}
	for _, id := range res.IDs {
		out[id] = true
	}
	return out
}

// Attach adopts a Station without a gid under its node id, the id a
// single-engine server gave its clients, unless a tagged station holds that
// id or an untagged station of an earlier partition took it first: then the
// node is skipped. Nothing is listed twice and Attach never fails on it.
func TestAttachAdoptsUntaggedStations(t *testing.T) {
	ctx := context.Background()

	// One partition: three tagged stations hold gids 1–3 on nodes 0–2, so
	// the next node (3) collides and the one after (4) is free.
	d := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	c, err := coord.Attach([]*ttdb.DurablePolyglot{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.IngestStation("tagged", "d", propSeries(i)); err != nil {
			t.Fatal(err)
		}
	}
	clash := untaggedStation(t, d, "clash", 3)
	free := untaggedStation(t, d, "free", 4)
	if clash != 3 || free != 4 {
		t.Fatalf("untagged nodes %d and %d, want 3 and 4", clash, free)
	}
	re, err := coord.Attach([]*ttdb.DurablePolyglot{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := stationIDs(t, re); len(got) != 4 || !got[1] || !got[2] || !got[3] || !got[4] {
		t.Fatalf("stations after attach %v, want 1–3 tagged and 4 adopted", got)
	}
	// The adopted station answers under its node id; the clash, under the
	// tagged station's id, answers as the tagged station.
	want := exec(t, re, ttdb.Q3(3, 0, propSpan)).Scalar
	if got := propSeries(2).AggregateRange(ts.AggMean, 0, propSpan); !propEq(want, got) {
		t.Fatalf("station 3 answers %v, want the tagged station's %v", want, got)
	}
	if got, want := exec(t, re, ttdb.Q3(4, 0, propSpan)).Scalar, propSeries(4).AggregateRange(ts.AggMean, 0, propSpan); !propEq(got, want) {
		t.Fatalf("adopted station 4 answers %v, want %v", got, want)
	}
	// New stations are numbered past every adopted id.
	if gid, err := re.IngestStation("next", "d", propSeries(5)); err != nil || gid != 5 {
		t.Fatalf("next gid %d (%v), want 5", gid, err)
	}

	// Two partitions, each holding only an untagged node 0: the first
	// partition's takes id 0, the second's is skipped.
	p0 := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	p1 := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	untaggedStation(t, p0, "a", 0)
	untaggedStation(t, p1, "b", 1)
	two, err := coord.Attach([]*ttdb.DurablePolyglot{p0, p1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := two.NumStations(); n != 1 {
		t.Fatalf("two untagged node 0s attached as %d stations, want 1", n)
	}
	res, err := two.Exec(ctx, ttdb.Q3(0, 0, propSpan))
	if err != nil || !propEq(res.Scalar, propSeries(0).AggregateRange(ts.AggMean, 0, propSpan)) {
		t.Fatalf("station 0 answers %v (%v), want partition 0's station", res.Scalar, err)
	}
}
