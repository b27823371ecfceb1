package dataset

import (
	"context"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

func TestGenerateBikeShape(t *testing.T) {
	cfg := DefaultBike()
	d := GenerateBike(cfg)
	if len(d.Stations) != cfg.Stations {
		t.Fatalf("stations=%d", len(d.Stations))
	}
	points := cfg.Days * 24 * 60 / cfg.StepMinutes
	districts := map[string]int{}
	for _, st := range d.Stations {
		if st.Availability.Len() != points {
			t.Fatalf("series len=%d want %d", st.Availability.Len(), points)
		}
		districts[st.District]++
		// Availability within [0, capacity].
		if st.Availability.Min() < 0 || st.Availability.Max() > float64(st.Capacity) {
			t.Fatalf("availability out of range: %v..%v cap=%d",
				st.Availability.Min(), st.Availability.Max(), st.Capacity)
		}
	}
	if len(districts) != cfg.Districts {
		t.Fatalf("districts=%d", len(districts))
	}
	if len(d.Trips) == 0 {
		t.Fatal("no trips")
	}
	for _, tr := range d.Trips {
		if tr.From == tr.To || tr.From >= cfg.Stations || tr.To >= cfg.Stations {
			t.Fatalf("bad trip %+v", tr)
		}
	}
}

func TestGenerateBikeDeterministic(t *testing.T) {
	a := GenerateBike(DefaultBike())
	b := GenerateBike(DefaultBike())
	if !a.Stations[7].Availability.Equal(b.Stations[7].Availability) {
		t.Fatal("same seed, different series")
	}
	cfg := DefaultBike()
	cfg.Seed = 99
	c := GenerateBike(cfg)
	if a.Stations[7].Availability.Equal(c.Stations[7].Availability) {
		t.Fatal("different seed, identical series")
	}
}

func TestBikeDailySeasonality(t *testing.T) {
	d := GenerateBike(DefaultBike())
	s := d.Stations[0].Availability
	// Strong 24h autocorrelation.
	acf := s.AutoCorrelation(24)
	if acf[0] < 0.5 {
		t.Fatalf("24h ACF=%v", acf[0])
	}
}

func TestBikeLoadEngineAndHyGraph(t *testing.T) {
	d := GenerateBike(BikeConfig{Stations: 10, Districts: 2, Days: 2, StepMinutes: 60, TripsPerSt: 2, Seed: 3})
	eng := ttdb.NewPolyglot(ts.Day)
	ids, err := d.LoadEngine(eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("ids=%d", len(ids))
	}
	start, end := d.Span()
	means, err := eng.Exec(context.Background(), ttdb.Q4(start, end))
	if err != nil || len(means.ByStation) != 10 {
		t.Fatalf("means=%d, %v", len(means.ByStation), err)
	}
	if qs := d.Table1Queries(ids); len(qs) != 8 || qs[0].Op != ttdb.OpQ1 || qs[7].Op != ttdb.OpQ8 ||
		qs[6].Station != ids[0] || qs[6].Other != ids[5] || qs[3].Start != end/4 || qs[3].End != 3*end/4 {
		t.Fatalf("canonical workload: %+v", qs)
	}
	h, hids := d.ToHyGraph()
	pv, pe := h.CountByKind(core.PG)
	tv, _ := h.CountByKind(core.TS)
	if pv != 10 || tv != 10 {
		t.Fatalf("hygraph pg=%d ts=%d", pv, tv)
	}
	if pe != 10+len(d.Trips) { // HAS_SERIES + trips
		t.Fatalf("pg edges=%d", pe)
	}
	if len(hids) != 10 {
		t.Fatalf("hygraph ids=%d", len(hids))
	}
}

func TestGenerateFraudGroundTruth(t *testing.T) {
	cfg := DefaultFraud()
	d := GenerateFraud(cfg)
	if len(d.Users) != cfg.Users || len(d.Cards) != cfg.Users {
		t.Fatalf("users=%d cards=%d", len(d.Users), len(d.Cards))
	}
	if len(d.TruePositives()) != cfg.Fraudsters {
		t.Fatalf("fraudsters=%d", len(d.TruePositives()))
	}
	if len(d.FalsePositiveBait()) != cfg.HeavyUsers {
		t.Fatalf("heavy=%d", len(d.FalsePositiveBait()))
	}
	// Fraudster balance has the drain; heavy user does not.
	for _, u := range d.TruePositives() {
		s, _ := d.H.Vertex(d.Cards[u]).SeriesVar("")
		if s.Min() > 0.2*s.Mean() {
			t.Fatalf("fraudster %d has no drain: min=%v mean=%v", u, s.Min(), s.Mean())
		}
		if d.BurstStart[u] == 0 {
			t.Fatalf("fraudster %d has no burst time", u)
		}
	}
	for _, u := range d.FalsePositiveBait() {
		s, _ := d.H.Vertex(d.Cards[u]).SeriesVar("")
		if s.Min() < 0.5*s.Mean() {
			t.Fatalf("heavy user %d looks drained: min=%v mean=%v", u, s.Min(), s.Mean())
		}
	}
}

func TestFraudBurstStructure(t *testing.T) {
	d := GenerateFraud(DefaultFraud())
	// Every fraudster has >= 3 TX_FLOW edges with a >=1200 amount inside the
	// burst hour.
	for _, u := range d.TruePositives() {
		card := d.Cards[u]
		burst := d.BurstStart[u]
		count := 0
		for _, e := range d.H.OutEdges(card) {
			if e.Label != "TX_FLOW" {
				continue
			}
			s, _ := e.SeriesVar("")
			if s.AggregateRange(ts.AggMax, burst, burst+ts.Hour) >= 1200 {
				count++
			}
		}
		if count < 3 {
			t.Fatalf("fraudster %d burst fan-out=%d", u, count)
		}
	}
	// Normal users never have 3 high-amount edges in any single hour.
	for i, c := range d.Truth {
		if c != Normal {
			continue
		}
		card := d.Cards[i]
		high := 0
		for _, e := range d.H.OutEdges(card) {
			if e.Label != "TX_FLOW" {
				continue
			}
			s, _ := e.SeriesVar("")
			if s.Max() >= 1000 {
				high++
			}
		}
		if high >= 3 {
			t.Fatalf("normal user %d has %d high edges", i, high)
		}
	}
}

func TestGenerateIoT(t *testing.T) {
	cfg := DefaultIoT()
	d := GenerateIoT(cfg)
	if len(d.Lines) != cfg.Lines {
		t.Fatalf("lines=%d", len(d.Lines))
	}
	wantMachines := cfg.Lines * cfg.MachinesPerLine
	if len(d.Machines) != wantMachines {
		t.Fatalf("machines=%d", len(d.Machines))
	}
	if len(d.Sensors) != wantMachines*cfg.SensorsPerMach {
		t.Fatalf("sensors=%d", len(d.Sensors))
	}
	if len(d.Faulty) == 0 || len(d.Faulty) > cfg.FaultyMachines {
		t.Fatalf("faulty=%v", d.Faulty)
	}
	// Sensor ownership resolves.
	for _, s := range d.Sensors {
		if _, ok := d.SensorOwner(s); !ok {
			t.Fatalf("sensor %d has no owner", s)
		}
	}
	// Duty cycle: strong 8h autocorrelation on a healthy sensor.
	var healthy core.VID = -1
	mi := 0
	for i := range d.Machines {
		if !d.Faulty[i] {
			healthy = d.Sensors[i*cfg.SensorsPerMach]
			break
		}
		mi++
	}
	_ = mi
	if healthy < 0 {
		t.Skip("all machines faulty")
	}
	s, _ := d.H.Vertex(healthy).SeriesVar("")
	if acf := s.AutoCorrelation(8); acf[0] < 0.7 {
		t.Fatalf("duty cycle ACF=%v", acf[0])
	}
}

func TestIoTFaultySensorsDetectable(t *testing.T) {
	d := GenerateIoT(DefaultIoT())
	cfg := d.Config
	// Faulty machines' sensors produce rolling-z anomalies; count them per
	// machine and check faulty ones dominate.
	score := func(machineIdx int) float64 {
		total := 0.0
		for s := 0; s < cfg.SensorsPerMach; s++ {
			sid := d.Sensors[machineIdx*cfg.SensorsPerMach+s]
			ser, _ := d.H.Vertex(sid).SeriesVar("")
			total += float64(len(ser.RollingZAnomalies(24, 6)))
		}
		return total
	}
	var worstHealthy, bestFaulty float64 = 0, 1 << 30
	for i := range d.Machines {
		sc := score(i)
		if d.Faulty[i] {
			if sc < bestFaulty {
				bestFaulty = sc
			}
		} else if sc > worstHealthy {
			worstHealthy = sc
		}
	}
	if bestFaulty <= worstHealthy {
		t.Fatalf("faulty min score %v <= healthy max %v", bestFaulty, worstHealthy)
	}
}
