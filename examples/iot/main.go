// IoT: smart-manufacturing analytics — the paper's Section 2 IoT use case.
// A plant of production lines, machines and sensors (TS vertices) is
// analyzed with the hybrid operators: anomaly×community detection (Table 2,
// D) localizes faulty machines, motif mining (PM) finds shared duty cycles,
// and hybrid pattern matching (Q1) pinpoints sensors with a planted shape.
//
//	go run ./examples/iot
package main

import (
	"fmt"
	"sort"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

func main() {
	cfg := dataset.DefaultIoT()
	d := dataset.GenerateIoT(cfg)
	fmt.Println("plant:", d.H)
	var faulty []int
	for m := range d.Faulty {
		faulty = append(faulty, m)
	}
	sort.Ints(faulty)
	fmt.Printf("planted faulty machines (hidden from the detectors): %v\n\n", faulty)

	// --- Anomalies × communities (Table 2, D). ----------------------------
	mid := ts.Time(cfg.Hours/2) * ts.Hour
	res := d.H.AnomalyCommunities(mid, 24, 6, 1)
	fmt.Println("community anomaly scores (top 3):")
	for i, c := range res {
		if i >= 3 {
			break
		}
		fmt.Printf("  community %d: score %.2f, %d members\n", c.Community, c.Score, len(c.Members))
		// Which machines own the anomalous sensors?
		owners := map[string]bool{}
		for member, score := range c.MemberScore {
			if score <= 0 {
				continue
			}
			if owner, ok := d.SensorOwner(member); ok {
				owners[d.H.Vertex(owner).Prop("name").String()] = true
			}
		}
		if len(owners) > 0 {
			names := make([]string, 0, len(owners))
			for n := range owners {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Printf("    anomalous sensors belong to: %v\n", names)
		}
	}

	// --- Motif mining (Table 2, PM). ---------------------------------------
	groups := d.H.MotifPatterns(8, 4, 3)
	fmt.Printf("\nmotif groups (sensors sharing a duty-cycle shape): %d\n", len(groups))
	for i, g := range groups {
		if i >= 3 {
			break
		}
		fmt.Printf("  %q: %d sensors, %d induced edges\n", g.Word, len(g.Members), g.InducedEdges)
	}

	// --- Hybrid pattern matching (Table 2, Q1). ----------------------------
	// Find machines whose sensor contains a spike-like subsequence.
	spike := ts.FromSamples("spike", 0, ts.Hour, []float64{0, 0, 40, 0, 0})
	p := lpg.NewPattern().
		V("m", "Machine", nil).
		V("s", "Sensor", core.SeriesWhere(core.SubsequencePred("", spike, 0.8))).
		E("m", "s", "HAS_SENSOR", nil)
	matches := d.H.HybridMatch(mid, p, 0)
	seen := map[string]bool{}
	for _, b := range matches {
		seen[d.H.Vertex(b["m"]).Prop("name").String()] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\nmachines matching the structural+spike hybrid pattern: %v\n", names)

	// --- Forecast a healthy sensor's next shift. ----------------------------
	for i := range d.Machines {
		if d.Faulty[i] {
			continue
		}
		sid := d.Sensors[i*cfg.SensorsPerMach]
		s, _ := d.H.Vertex(sid).SeriesVar("")
		train := s.Slice(0, s.End()-8*ts.Hour)
		f, err := train.ARForecast(16, 8, ts.Hour)
		if err != nil {
			break
		}
		actual := s.Slice(s.End()-8*ts.Hour, s.End()+1)
		fmt.Printf("\nforecast next shift of %s: MAE %.2f (signal std %.2f)\n",
			d.H.Vertex(sid).Prop("name").String(), ts.MAE(f, actual), s.Std())
		break
	}

	// --- Graph-coupled forecasting (Section 6, "HyGraph and AI"). -----------
	// On a line whose machines influence each other, a forecaster that reads
	// neighbor sensors through the topology beats per-series AR.
	ccfg := cfg
	ccfg.Hours = 24 * 21
	ccfg.FaultyMachines = 0
	ccfg.Coupling = 0.9
	ccfg.CouplingLag = 1
	coupled := dataset.GenerateIoT(ccfg)
	mcfg := DefaultConfig(ts.Hour) // hybridar.go
	mcfg.NeighborHops = 3
	split := ts.Time(ccfg.Hours-12) * ts.Hour
	end := ts.Time(ccfg.Hours) * ts.Hour
	hy, iso, err := Evaluate(coupled.H, mcfg, 0, split, end)
	if err != nil {
		fmt.Println("graph-coupled forecast:", err)
		return
	}
	sensors := make([]core.VID, 0, len(hy))
	for v := range hy {
		sensors = append(sensors, v)
	}
	sort.Slice(sensors, func(i, j int) bool { return sensors[i] < sensors[j] })
	var hySum, isoSum float64
	for _, v := range sensors {
		hySum += hy[v]
		isoSum += iso[v]
	}
	n := float64(len(hy))
	fmt.Printf("\ngraph-coupled forecasting over %d sensors (12h horizon):\n", len(hy))
	fmt.Printf("  hybrid (own + neighbor lags) MAE: %.2f\n", hySum/n)
	fmt.Printf("  isolated per-series AR MAE:       %.2f\n", isoSum/n)
}
