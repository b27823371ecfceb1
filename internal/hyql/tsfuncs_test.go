package hyql

import (
	"math"
	"testing"

	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// TestTSPoints checks ts.points returns the raw [t, v] pairs, whole-series
// and windowed.
func TestTSPoints(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (c:CreditCard) WHERE c.name = 'c2'
		RETURN ts.points(c) AS pts`)
	pts := res.Rows[0][0].List()
	if len(pts) != 96 {
		t.Fatalf("len=%d, want 96", len(pts))
	}
	first := pts[0].List()
	if len(first) != 2 {
		t.Fatalf("pair=%v", first)
	}
	if tt, _ := first[0].AsScalar().AsInt(); tt != 0 {
		t.Fatalf("t0=%d", tt)
	}
	if v, _ := first[1].AsFloat(); v != 1000 {
		t.Fatalf("v0=%v", v)
	}
	// Windowed: hours [2, 5) -> 3 points starting at t=2h.
	res = query(t, h, `
		MATCH (c:CreditCard) WHERE c.name = 'c2'
		RETURN ts.points(c, 7200000, 18000000) AS pts`)
	pts = res.Rows[0][0].List()
	if len(pts) != 3 {
		t.Fatalf("windowed len=%d, want 3", len(pts))
	}
	if tt, _ := pts[0].List()[0].AsScalar().AsInt(); ts.Time(tt) != 2*ts.Hour {
		t.Fatalf("windowed t0=%d", tt)
	}
}

// TestTSBelow checks ts.below keeps only sub-threshold points: card c1 dips
// to ~50 for hours 40-43.
func TestTSBelow(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (c:CreditCard) WHERE c.name = 'c1'
		RETURN length(ts.below(c, 0, 345600000, 100)) AS n`)
	n, _ := res.Rows[0][0].AsScalar().AsInt()
	if n != 4 {
		t.Fatalf("n=%d, want 4", n)
	}
	// The benign card never dips.
	res = query(t, h, `
		MATCH (c:CreditCard) WHERE c.name = 'c2'
		RETURN length(ts.below(c, 0, 345600000, 100)) AS n`)
	if n, _ := res.Rows[0][0].AsScalar().AsInt(); n != 0 {
		t.Fatalf("benign n=%d, want 0", n)
	}
}

// TestTSCorrWindowed checks the 5-argument form matches the 3-argument form
// when the window covers the whole series, and accepts narrower windows.
func TestTSCorrWindowed(t *testing.T) {
	h := fraudHG(t)
	full := query(t, h, `
		MATCH (a:CreditCard), (b:CreditCard)
		WHERE a.name = 'c2' AND b.name = 'c3'
		RETURN ts.corr(a, b, 3600000) AS r`)
	win := query(t, h, `
		MATCH (a:CreditCard), (b:CreditCard)
		WHERE a.name = 'c2' AND b.name = 'c3'
		RETURN ts.corr(a, b, 0, 345600000, 3600000) AS r`)
	rf, _ := full.Rows[0][0].AsFloat()
	rw, _ := win.Rows[0][0].AsFloat()
	if math.Abs(rf-rw) > 1e-12 {
		t.Fatalf("full=%v windowed=%v", rf, rw)
	}
	// A narrow window is a different (still defined) correlation.
	narrow := query(t, h, `
		MATCH (a:CreditCard), (b:CreditCard)
		WHERE a.name = 'c2' AND b.name = 'c3'
		RETURN ts.corr(a, b, 0, 36000000, 3600000) AS r`)
	if _, ok := narrow.Rows[0][0].AsFloat(); !ok {
		t.Fatalf("narrow corr not numeric: %v", narrow.Rows[0][0])
	}
}

// TestTSResample checks ts.resample returns the bucketed aggregate as
// [bucket_start, value] pairs, whole-series and windowed, matching the
// engine-side ts.Series.Resample exactly.
func TestTSResample(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (c:CreditCard) WHERE c.name = 'c2'
		RETURN ts.resample(c, 86400000, 'mean') AS buckets`)
	buckets := res.Rows[0][0].List()
	if len(buckets) != 4 {
		t.Fatalf("len=%d, want 4 day buckets", len(buckets))
	}
	// Oracle: the same fold on the raw points, through the engine API.
	raw := ts.New("c2")
	ptsRes := query(t, h, `
		MATCH (c:CreditCard) WHERE c.name = 'c2'
		RETURN ts.points(c) AS pts`)
	for _, pv := range ptsRes.Rows[0][0].List() {
		pair := pv.List()
		tt, _ := pair[0].AsScalar().AsInt()
		v, _ := pair[1].AsFloat()
		raw.MustAppend(ts.Time(tt), v)
	}
	want := raw.Resample(ts.Day, ts.AggMean)
	for i, bv := range buckets {
		pair := bv.List()
		bt, _ := pair[0].AsScalar().AsInt()
		v, _ := pair[1].AsFloat()
		if ts.Time(bt) != want.TimeAt(i) || v != want.ValueAt(i) {
			t.Fatalf("bucket %d: got (%d, %v), want (%d, %v)", i, bt, v, want.TimeAt(i), want.ValueAt(i))
		}
	}
	// Windowed 5-arg form: day 2 only -> one bucket, the same value as the
	// whole-series fold's second bucket.
	res = query(t, h, `
		MATCH (c:CreditCard) WHERE c.name = 'c2'
		RETURN ts.resample(c, 86400000, 172800000, 86400000, 'mean') AS buckets`)
	buckets = res.Rows[0][0].List()
	if len(buckets) != 1 {
		t.Fatalf("windowed len=%d, want 1", len(buckets))
	}
	if v, _ := buckets[0].List()[1].AsFloat(); v != want.ValueAt(1) {
		t.Fatalf("windowed value %v, want %v", v, want.ValueAt(1))
	}
	// Bad arguments surface as errors, not panics.
	for _, bad := range []string{
		`MATCH (c:CreditCard) RETURN ts.resample(c, 0, 'mean')`,
		`MATCH (c:CreditCard) RETURN ts.resample(c, 86400000, 'nope')`,
		`MATCH (c:CreditCard) RETURN ts.resample(c)`,
	} {
		if _, err := NewEngine(h).Query(bad, 0); err == nil {
			t.Fatalf("no error for %q", bad)
		}
	}
}

// TestEngineInstrument checks the engine's metric handles: clause timers
// fire, single-binding WHERE conjuncts are counted as pushdowns, and a nil
// registry detaches them.
func TestEngineInstrument(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	reg := obs.New()
	eng.Instrument(reg)
	src := `MATCH (c:CreditCard)-[x:TX]->(m:Merchant)
		WHERE c.name = 'c1' AND x.amount > 1900
		RETURN m.name ORDER BY m.name`
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(src, 10*ts.Hour); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	// c.name = 'c1' pushes onto the node, x.amount > 1900 onto the edge.
	if got := snap.Counters["hyql.pushdown.node_conjuncts"]; got != 3 {
		t.Fatalf("node_conjuncts=%d, want 3", got)
	}
	if got := snap.Counters["hyql.pushdown.edge_conjuncts"]; got != 3 {
		t.Fatalf("edge_conjuncts=%d, want 3", got)
	}
	for _, name := range []string{
		"hyql.clause.parse", "hyql.clause.match", "hyql.clause.where",
		"hyql.clause.return", "hyql.clause.order",
	} {
		st, ok := snap.Durations[name]
		if !ok || st.Count != 3 {
			t.Fatalf("%s: stat=%+v ok=%v, want count 3", name, st, ok)
		}
	}
	// Detach: counters stop moving.
	eng.Instrument(nil)
	if _, err := eng.Query(src, 10*ts.Hour); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["hyql.pushdown.node_conjuncts"]; got != 3 {
		t.Fatalf("detached node_conjuncts=%d, want 3", got)
	}
}
