// Integration tests exercising full cross-module flows: dataset → storage
// engines, dataset → HyGraph → HyQL, the fraud pipeline end to end, the
// semantic index over a generated instance, and streaming ingestion feeding
// continuous queries — the repository's subsystems working together the way
// the paper's architecture diagram (Figure 1) composes them.
package hygraph_test

import (
	"context"
	"math"
	"testing"

	"hygraph/internal/bench"
	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/hyql"
	"hygraph/internal/index"
	"hygraph/internal/pipeline"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/stream"
	"hygraph/internal/ts"
)

// TestTable1ShapeSmall runs the full Table 1 harness at a reduced scale and
// asserts the paper's qualitative shape: polyglot wins everywhere, heavily
// on the multi-entity aggregation queries.
func TestTable1ShapeSmall(t *testing.T) {
	cfg := bench.Config{
		Bike: dataset.BikeConfig{Stations: 60, Districts: 6, Days: 90,
			StepMinutes: 60, TripsPerSt: 4, Seed: 7},
		Reps: 3,
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
	mN := exec(neo, ttdb.Q4(qs, qe)).ByStation
	mP := exec(pg, ttdb.Q4(qs, qe)).ByStation
	for i := range idsN {
		if math.Abs(mN[idsN[i]]-mP[idsP[i]]) > 1e-9 {
			t.Fatalf("station %d means differ: %v vs %v", i, mN[idsN[i]], mP[idsP[i]])
		}
	}
	dN := exec(neo, ttdb.Q5(qs, qe)).ByDistrict
	dP := exec(pg, ttdb.Q5(qs, qe)).ByDistrict
	if len(dN) != len(dP) {
		t.Fatalf("district counts differ: %d vs %d", len(dN), len(dP))
	}
	for k, v := range dN {
		if math.Abs(v-dP[k]) > 1e-5 {
			t.Fatalf("district %s sums differ: %v vs %v", k, v, dP[k])
		}
	}
	kN := exec(neo, ttdb.Q6(qs, qe, 5)).Stations
	kP := exec(pg, ttdb.Q6(qs, qe, 5)).Stations
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

// TestSemanticIndexOverIoT: GraphRAG-style retrieval finds the faulty
// machines' sensors near each other.
func TestSemanticIndexOverIoT(t *testing.T) {
	d := dataset.GenerateIoT(dataset.DefaultIoT())
	mid := ts.Time(d.Config.Hours/2) * ts.Hour
	sem, err := index.BuildSemantic(d.H, index.DefaultSemantic(mid))
	if err != nil {
		t.Fatal(err)
	}
	// Combined index buckets group sensors of the same duty cycle.
	ci := index.BuildCombined(d.H, 8, 4)
	if len(ci.Buckets()) == 0 {
		t.Fatal("no combined-index buckets")
	}
	total := 0
	for _, b := range ci.Buckets() {
		total += len(ci.Lookup(b))
	}
	if total != len(d.Sensors) {
		t.Fatalf("indexed %d of %d sensors", total, len(d.Sensors))
	}
	// Faulty machines' sensors rank other faulty sensors among their
	// semantic neighbors (their features share drift+spike signature).
	var faultySensors []core.VID
	for mi := range d.Machines {
		if d.Faulty[mi] {
			for s := 0; s < d.Config.SensorsPerMach; s++ {
				faultySensors = append(faultySensors, d.Sensors[mi*d.Config.SensorsPerMach+s])
			}
		}
	}
	if len(faultySensors) < 2 {
		t.Skip("not enough faulty sensors")
	}
	isFaulty := map[core.VID]bool{}
	for _, s := range faultySensors {
		isFaulty[s] = true
	}
	hits := 0
	for _, s := range faultySensors {
		peers, err := sem.Similar(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			if isFaulty[p] {
				hits++
				break
			}
		}
	}
	if hits < len(faultySensors)/2 {
		t.Fatalf("only %d/%d faulty sensors found a faulty peer", hits, len(faultySensors))
	}
}

// TestStreamingIntoQueries: stream a day of points into a generated
// instance and watch a continuous hybrid query pick up the change.
func TestStreamingIntoQueries(t *testing.T) {
	data := dataset.GenerateBike(dataset.BikeConfig{
		Stations: 5, Districts: 1, Days: 2, StepMinutes: 60, TripsPerSt: 1, Seed: 2})
	h, stations := data.ToHyGraph()
	// Find station 0's series vertex.
	var tsv core.VID = -1
	for _, e := range h.OutEdges(stations[0]) {
		if e.Label == "HAS_SERIES" {
			tsv = e.To
		}
	}
	if tsv < 0 {
		t.Fatal("no series vertex")
	}
	in := stream.NewIngestor(h)
	fires := 0
	c := &stream.Continuous{
		Query: `MATCH (a:Availability) RETURN count(a) AS n`,
		Slide: 6 * ts.Hour,
		Emit: func(_ ts.Time, res *hyql.Result) {
			fires++
			// Past the generated span only the streamed series is still
			// valid (TS validity = series time span), so each window sees
			// exactly one live Availability vertex.
			if n, _ := res.Rows[0][0].AsFloat(); n != 1 {
				t.Errorf("window saw %v series vertices", n)
			}
		},
	}
	_, end := data.Span()
	if err := in.Register(c, end); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		at := end + ts.Time(i)*ts.Hour
		if err := in.Apply(stream.Update{Kind: stream.Append, At: at, Vertex: tsv, Value: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if fires != 3 { // windows at end+6h, +12h, +18h
		t.Fatalf("fires=%d", fires)
	}
	// The streamed points are queryable through HyQL immediately.
	res, err := hyql.NewEngine(h).Query(`
		MATCH (a:Availability)
		WHERE ts.len(a) > 60
		RETURN count(a) AS grown`, end+23*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "1" {
		t.Fatalf("grown=%v", res.Rows[0][0])
	}
}

// TestHyGraphRoundTripThroughStorage: persist the PG part of an instance
// through the graph store's binary snapshot and reload it.
func TestHyGraphRoundTripThroughStorage(t *testing.T) {
	d := dataset.GenerateFraud(dataset.DefaultFraud())
	g, _ := d.H.ToTPG()
	// The TPG → lpg snapshot at t=0 has every PG element (all are valid
	// from 0 in this workload).
	snap := g.SnapshotAt(0)
	if snap.Graph.NumVertices() == 0 {
		t.Fatal("empty snapshot")
	}
	pv, _ := d.H.CountByKind(core.PG)
	if snap.Graph.NumVertices() != pv {
		t.Fatalf("snapshot vertices=%d want %d", snap.Graph.NumVertices(), pv)
	}
}
