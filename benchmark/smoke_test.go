package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke drives every workload for one second against a real child server
// on a shrunken dataset and expects every metric BENCHMARK.json names, no
// failed op and no lost acknowledged write. The first run in a checkout pays
// for building cmd/hygraph; later runs take a few seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child servers")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(root, ".bench_build", "bin", "hygraph")
	if err := goBuild(root, bin, "./cmd/hygraph"); err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if sp.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, sp.Workloads[i].Name, wl.name)
		}
		small := wl
		small.stations, small.days = 24, 56
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && wl.name != "read_point" && wl.name != "hyql_live" {
				continue // one traced run per engine shape keeps the smoke short
			}
			o := options{seed: 5, seconds: 1, warmup: 0.2, setups: 1, trace: trace}
			res, err := runOne(root, bin, environment(root), &small, o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: %d failed of %d: %s", wl.name, trace, res.Failed, res.Attempted, res.FirstError)
			}
			metrics, err := sp.contractMetrics(res)
			if err != nil {
				t.Errorf("%s trace=%d: %v", wl.name, trace, err)
			}
			for name, m := range metrics {
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, name, m.Value)
				}
			}
			if trace == 1 && res.Layers != "ok" {
				t.Errorf("%s: the layer ladder is %q at the commit that defines it", wl.name, res.Layers)
			}
			if wl.name == "ingest_mixed" && res.Diagnostics["lost_acked"] != 0 {
				t.Errorf("lost %v acknowledged writes across SIGKILL", res.Diagnostics["lost_acked"])
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "read_point.trace.jsonl")); err != nil {
		t.Errorf("the traced run left no trace file: %v", err)
	}
}
