// Command hymark is the repository's frozen served-workload benchmark: it
// builds cmd/hygraph, starts `hygraph serve` as a child process, loads a
// seeded dataset through the HTTP ingest API, drives one of four workloads
// over the /v1 wire protocol, checks the answers against its own model, and
// prints every metric by name and unit. See README.md.
//
//	bash benchmark/run.sh --workload read_point --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -all -seed 1        # every workload, untraced then traced
//	bash benchmark/run.sh -aa 5               # A/A calibration of the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	warmup   float64
	trace    int
	setups   int
	all      bool
	aa       int
	history  string
}

func main() {
	// Two seconds of load fill the caches before the window, and an untraced
	// run bulk-loads three times so that setup_s is a median.
	o := options{warmup: 2, setups: 3}
	flag.StringVar(&o.workload, "workload", "", "workload to run: read_point, read_scan, ingest_mixed or hyql_live")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the dataset and the op lists")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run that reports the per-layer metrics")
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced and traced, and print a table")
	flag.IntVar(&o.aa, "aa", 0, "A/A calibration: run this many sets and write the bounds into BENCHMARK.json")
	flag.StringVar(&o.history, "append", "", "append one headline line per run to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	bin := filepath.Join(root, ".bench_build", "bin", "hygraph")
	if err := goBuild(root, bin, "./cmd/hygraph"); err != nil {
		fatal(err)
	}
	env := environment(root)

	switch {
	case o.aa > 0:
		err = calibrate(root, bin, o)
	case o.all:
		err = runAll(root, bin, env, o)
	default:
		wl := findWorkload(o.workload)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		var res *result
		if res, err = runOne(root, bin, env, wl, o); err == nil {
			err = res.emit(root, o)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// emit prints the diagnostics to stderr and, as the last line of stdout, the
// one JSON object the acceptance driver reads: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one, as BENCHMARK.json
// names them.
func (res *result) emit(root string, o options) error {
	res.printDiagnostics(os.Stderr)
	if o.history != "" {
		if err := res.appendHistory(o.history); err != nil {
			return err
		}
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	metrics, err := sp.contractMetrics(res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"correct": res.Failed == 0, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hymark:", err)
	os.Exit(1)
}
