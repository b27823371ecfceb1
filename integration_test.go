// Integration tests exercising full cross-module flows: dataset → storage
// engines, dataset → HyGraph → HyQL, and the fraud pipeline end to end — the
// repository's subsystems working together the way the paper's architecture
// diagram (Figure 1) composes them. Streaming ingestion feeding continuous
// queries is exercised beside its code in examples/streaming.
package hygraph_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"hygraph/internal/bench"
	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/hyql"
	"hygraph/internal/pipeline"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// TestTable1ShapeSmall runs the full Table 1 harness at a reduced scale and
// asserts the paper's qualitative shape: polyglot wins everywhere, heavily
// on the multi-entity aggregation queries. TTDB answers Q8 here in ~5 µs, so
// the ratio holds on a loaded machine only because each sample is a batch
// of at least 2 ms and ten of them are averaged: one preempted batch moves
// the mean by a tenth of the stall, not by the stall.
func TestTable1ShapeSmall(t *testing.T) {
	cfg := bench.Config{
		Bike: dataset.BikeConfig{Stations: 60, Districts: 6, Days: 90,
			StepMinutes: 60, TripsPerSt: 4, Seed: 7},
		Reps: 10,
	}
	rows, err := bench.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows=%d", len(rows))
	}
	// At this scale the heavy-query factor is smaller than the default
	// run's but must still be large.
	if problems := bench.ShapeCheck(rows, 10); len(problems) != 0 {
		t.Fatalf("shape violated: %v\n%s", problems, bench.Format(rows))
	}
	for _, r := range rows {
		if r.NeoMRS <= 0 || r.TTDBMRS < 0 {
			t.Fatalf("degenerate timing row: %+v", r)
		}
	}
}

// TestEnginesAgreeOnGeneratedWorkload: both storage engines must return the
// same answers over a full generated dataset, not just the unit-test toy.
func TestEnginesAgreeOnGeneratedWorkload(t *testing.T) {
	data := dataset.GenerateBike(dataset.BikeConfig{
		Stations: 25, Districts: 5, Days: 21, StepMinutes: 60, TripsPerSt: 3, Seed: 11})
	neo := ttdb.NewAllInGraph()
	pg := ttdb.NewPolyglot(ts.Week)
	idsN, err := data.LoadEngine(neo)
	if err != nil {
		t.Fatal(err)
	}
	idsP, err := data.LoadEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	start, end := data.Span()
	qs, qe := start+3*ts.Day, end-3*ts.Day

	exec := func(e ttdb.Querier, q ttdb.Query) ttdb.Result {
		t.Helper()
		res, err := e.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
		return res
	}
	// Both engines list their stations, and their districts, in load order.
	mN := exec(neo, ttdb.Q4(qs, qe))
	mP := exec(pg, ttdb.Q4(qs, qe))
	if !slices.Equal(mN.IDs, idsN) || !slices.Equal(mP.IDs, idsP) {
		t.Fatalf("Q4 stations %v / %v, want %v / %v", mN.IDs, mP.IDs, idsN, idsP)
	}
	for i := range idsN {
		if math.Abs(mN.Vals[i]-mP.Vals[i]) > 1e-9 {
			t.Fatalf("station %d means differ: %v vs %v", i, mN.Vals[i], mP.Vals[i])
		}
	}
	dN := exec(neo, ttdb.Q5(qs, qe))
	dP := exec(pg, ttdb.Q5(qs, qe))
	if !slices.Equal(dN.Names, dP.Names) {
		t.Fatalf("districts differ: %v vs %v", dN.Names, dP.Names)
	}
	for i, v := range dN.Vals {
		if math.Abs(v-dP.Vals[i]) > 1e-5 {
			t.Fatalf("district %s sums differ: %v vs %v", dN.Names[i], v, dP.Vals[i])
		}
	}
	kN := exec(neo, ttdb.Q6(qs, qe, 5)).IDs
	kP := exec(pg, ttdb.Q6(qs, qe, 5)).IDs
	for i := range kN {
		// Translate engine-local ids through the shared load order.
		if kN[i] != kP[i] { // both engines assign dense ids in load order
			t.Fatalf("top-k order differs: %v vs %v", kN, kP)
		}
	}
	cN := exec(neo, ttdb.Q7(idsN[0], idsN[1], qs, qe, ts.Hour)).Scalar
	cP := exec(pg, ttdb.Q7(idsP[0], idsP[1], qs, qe, ts.Hour)).Scalar
	if math.Abs(cN-cP) > 1e-6 {
		t.Fatalf("correlations differ: %v vs %v", cN, cP)
	}
}

// TestHyQLOverBikeDataset: the query language over a generated instance,
// including district aggregation that must match a hand computation.
func TestHyQLOverBikeDataset(t *testing.T) {
	data := dataset.GenerateBike(dataset.BikeConfig{
		Stations: 12, Districts: 3, Days: 7, StepMinutes: 60, TripsPerSt: 2, Seed: 5})
	h, _ := data.ToHyGraph()
	eng := hyql.NewEngine(h)
	res, err := eng.Query(`
		MATCH (s:Station)-[:HAS_SERIES]->(a:Availability)
		RETURN s.district AS district, count(s) AS stations, avg(ts.mean(a)) AS avg_avail
		ORDER BY district`, 3*ts.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("districts=%d", len(res.Rows))
	}
	// Hand-compute district-0's expected values.
	var wantCount int
	var sum float64
	for _, st := range data.Stations {
		if st.District == "district-0" {
			wantCount++
			sum += st.Availability.Mean()
		}
	}
	if got := res.Rows[0][1].String(); got != itoa(wantCount) {
		t.Fatalf("district-0 stations=%s want %d", got, wantCount)
	}
	gotAvg, _ := res.Rows[0][2].AsFloat()
	if math.Abs(gotAvg-sum/float64(wantCount)) > 1e-9 {
		t.Fatalf("district-0 avg=%v want %v", gotAvg, sum/float64(wantCount))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestPipelineAcrossScales: the Figure-4 result holds as the workload grows.
func TestPipelineAcrossScales(t *testing.T) {
	for _, users := range []int{20, 60} {
		cfg := dataset.DefaultFraud()
		cfg.Users = users
		cfg.Seed = int64(users)
		d := dataset.GenerateFraud(cfg)
		r := pipeline.Run(d, pipeline.DefaultParams())
		if r.HybridMetrics.Recall() != 1 {
			t.Fatalf("users=%d: hybrid recall=%v", users, r.HybridMetrics.Recall())
		}
		if r.HybridMetrics.Precision() < r.GraphMetrics.Precision() {
			t.Fatalf("users=%d: hybrid precision below graph-only", users)
		}
	}
}

// TestHyGraphRoundTripThroughStorage: persist the PG part of an instance
// through the graph store's binary snapshot and reload it.
func TestHyGraphRoundTripThroughStorage(t *testing.T) {
	d := dataset.GenerateFraud(dataset.DefaultFraud())
	g, _ := d.H.ToTPG()
	// The snapshot at t=0 of the PG part, through the TPG, has every PG
	// element (all are valid from 0 in this workload).
	pgPart, _ := core.FromTPG(g)
	snap := pgPart.SnapshotAt(0)
	if snap.Graph.NumVertices() == 0 {
		t.Fatal("empty snapshot")
	}
	pv, _ := d.H.CountByKind(core.PG)
	if snap.Graph.NumVertices() != pv {
		t.Fatalf("snapshot vertices=%d want %d", snap.Graph.NumVertices(), pv)
	}
}
