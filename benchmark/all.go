package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"hygraph/benchmark/mark"
)

// spec is BENCHMARK.json. Its end_to_end and per_layer lists are the names
// and units the contract line prints, so the file and the output cannot
// disagree; calibration rewrites the bounds in place.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// contractMetrics picks the metrics BENCHMARK.json names for this kind of run
// out of everything the run measured, and fails on one it did not measure.
func (s *spec) contractMetrics(res *result) (map[string]metric, error) {
	units := map[string]string{}
	if res.Traced {
		for _, m := range s.PerLayer {
			units[m.Name] = m.Unit
		}
	} else {
		for _, m := range s.EndToEnd {
			units[m.Name] = m.Unit
		}
	}
	out := map[string]metric{}
	for name, unit := range units {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit {
			return nil, fmt.Errorf("BENCHMARK.json names %s in %s, which this run did not measure in that unit", name, unit)
		}
		out[name] = m
	}
	return out, nil
}

// runAll runs every workload untraced and then traced, prints each report,
// and closes with the cross-run tracing overhead on the read workloads.
func runAll(root, bin string, env envInfo, o options) error {
	for i := range workloads {
		wl := &workloads[i]
		var rate [2]float64
		for trace := 0; trace <= 1; trace++ {
			o.trace = trace
			res, err := runOne(root, bin, env, wl, o)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			res.printDiagnostics(os.Stdout)
			if o.history != "" {
				if err := res.appendHistory(o.history); err != nil {
					return err
				}
			}
			rate[trace] = res.Metrics["ops_s"].Value
		}
		fmt.Printf("%s: tracing overhead on ops_s, traced run against untraced run: %.4f (of %.1f 1/s)\n\n",
			wl.name, 1-ratio(rate[1], rate[0]), rate[0])
	}
	return nil
}

// calibrate is the A/A mode: it runs the same commit o.aa times per workload
// on one seed, alternating the workload order between sets, and derives each
// end-to-end metric's bound from how far identical runs disagree:
// max(0.10, 2 x the widest relative spread over the workloads), in hundredths.
// A metric that would need more than 0.25, the most a bound may be, is left at
// 0.25 and reported as too noisy to gate on. Unresolved runs are not counted.
func calibrate(root, bin string, o options) error {
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // metric → workload → one value per set
	for set := 0; set < o.aa; set++ {
		order := make([]int, len(workloads))
		for i := range order {
			order[i] = i
			if set%2 == 1 {
				order[i] = len(workloads) - 1 - i
			}
		}
		for _, i := range order {
			wl := &workloads[i]
			o.trace = 0
			res, err := runOne(root, bin, environment(root), wl, o)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set, wl.name, err)
			}
			fmt.Fprintf(os.Stderr, "set %d %s: %s, %d failed of %d\n", set, wl.name, res.Status, res.Failed, res.Attempted)
			if res.Status != "ok" {
				continue
			}
			for name, m := range res.Metrics {
				if values[name] == nil {
					values[name] = map[string][]float64{}
				}
				values[name][wl.name] = append(values[name][wl.name], m.Value)
			}
		}
	}
	for i := range sp.EndToEnd {
		m := &sp.EndToEnd[i]
		widest := 0.0
		for _, wl := range sortedKeys(values[m.Name]) {
			v := values[m.Name][wl]
			if len(v) < 2 {
				continue // one resolved run says nothing about spread
			}
			sort.Float64s(v)
			q1, q2, q3 := mark.Quartiles(v)
			spread := ratio(v[len(v)-1]-v[0], q2)
			widest = max(widest, spread)
			fmt.Printf("%-12s %-13s n=%d median=%.4f q1=%.4f q3=%.4f iqr/median=%.4f (max-min)/median=%.4f\n",
				m.Name, wl, len(v), q2, q1, q3, mark.Spread(v), spread)
		}
		m.Bound = math.Ceil(max(0.10, 2*widest)*100) / 100
		if m.Bound > 0.25 {
			fmt.Printf("%-12s needs bound %.2f: too noisy to gate on, left at 0.25 and to be read as a diagnostic\n", m.Name, m.Bound)
			m.Bound = 0.25
		}
		fmt.Printf("%-12s bound %.2f\n", m.Name, m.Bound)
	}
	out, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "BENCHMARK.json"), append(out, '\n'), 0o644)
}
