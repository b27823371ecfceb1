// Command hybench regenerates the paper's Table 1: the eight-query storage
// benchmark of all-in-graph ("Neo4j") vs polyglot persistence
// ("TimeTravelDB") over a synthetic bike-sharing workload.
//
// Usage:
//
//	hybench [-scale small|default|paper] [-reps N] [-stations N] [-days N]
//	        [-parallel] [-workers N] [-storage] [-partitions "1,2,4,8"]
//	        [-shapemin X]
//	        [-json FILE] [-check FILE] [-metrics]
//
// The default scale (200 stations × 180 days hourly) finishes in well under
// a minute and already shows the paper's orders-of-magnitude separation on
// Q4–Q8; -scale paper approaches the dataset size of the original study.
//
// -parallel additionally times the polyglot engine's Q4–Q8 sequential vs
// fanned out over the worker pool (-workers, default GOMAXPROCS) and
// verifies both modes return identical results.
// -storage measures points-per-MB of the raw vs compressed chunk layouts,
// the cold-tier spill and scan cost, and the Q1–Q8 deltas of a compressed
// engine.
// -partitions runs the partition-scaling mode: the scatter-gather
// coordinator (internal/coord) over N in-process partitions at each listed
// count, every level verified element-wise identical to the single-engine
// oracle before Q4–Q8 are timed against the 1-partition reference.
// -json writes the machine-readable BENCH_table1.json
// baseline; -check validates an existing baseline file's schema and exits.
// -metrics attaches the observability registry to every engine, pushes a
// small workload slice through the durable layer (WALs + journal + observed
// recovery), embeds the snapshot in the baseline, and fails the run if any
// instrumented subsystem reported nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hygraph/internal/bench"
	"hygraph/internal/obs"
)

// parseCounts parses the -partitions value: comma-separated positive
// partition counts, e.g. "1,2,4,8".
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", f)
		}
		if n < 1 {
			return nil, fmt.Errorf("count %d not positive", n)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// check ends the run with the harness's error line when a step failed.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybench: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	scale := flag.String("scale", "default", "workload scale: small, default, or paper")
	reps := flag.Int("reps", 0, "measured repetitions per query (0 = scale default)")
	stations := flag.Int("stations", 0, "override station count")
	days := flag.Int("days", 0, "override number of days")
	parallel := flag.Bool("parallel", false, "also compare sequential vs parallel Q4-Q8 on the polyglot engine")
	workers := flag.Int("workers", 0, "fan-out width for -parallel and Table 1 queries (0 = GOMAXPROCS for -parallel, sequential otherwise)")
	storage := flag.Bool("storage", false, "storage mode: points-per-MB of raw vs compressed chunk layouts, cold-tier spill + scan cost, and Q1-Q8 deltas of a compressed engine")
	partitions := flag.String("partitions", "", "partition-scaling mode: comma-separated partition counts (e.g. 1,2,4,8) for the scatter-gather coordinator, each level verified identical to the single-engine oracle")
	shapeMin := flag.Float64("shapemin", 50, "minimum Q4-Q6/Q8 speedup the Table 1 shape check enforces (lower it for -scale small smokes)")
	jsonPath := flag.String("json", "", "write the machine-readable baseline to this file")
	checkPath := flag.String("check", "", "validate an existing baseline file's schema and exit")
	metrics := flag.Bool("metrics", false, "instrument the run and embed an observability snapshot in the baseline")
	flag.Parse()

	if *checkPath != "" {
		f, err := os.Open(*checkPath)
		check(err)
		defer f.Close()
		_, err = bench.ReadBaseline(f)
		check(err)
		fmt.Printf("%s: valid %s baseline\n", *checkPath, bench.BaselineSchema)
		return
	}

	var cfg bench.Config
	switch *scale {
	case "small":
		cfg = bench.DefaultConfig()
		cfg.Bike.Stations = 40
		cfg.Bike.Days = 30
		cfg.Reps = 5
	case "default":
		cfg = bench.DefaultConfig()
	case "paper":
		cfg = bench.PaperScaleConfig()
	default:
		fmt.Fprintf(os.Stderr, "hybench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *stations > 0 {
		cfg.Bike.Stations = *stations
	}
	if *days > 0 {
		cfg.Bike.Days = *days
	}
	cfg.Workers = *workers
	var reg *obs.Registry
	if *metrics {
		reg = obs.New()
		cfg.Obs = reg
	}

	points := cfg.Bike.Stations * cfg.Bike.Days * 24 * 60 / cfg.Bike.StepMinutes
	fmt.Printf("Table 1 reproduction — %d stations, %d days (%d points), %d reps/query\n\n",
		cfg.Bike.Stations, cfg.Bike.Days, points, cfg.Reps)

	// The harness has no request to inherit a deadline from: every section
	// runs under main's context.
	ctx := context.Background()
	rows, err := bench.Run(ctx, cfg)
	check(err)
	fmt.Print(bench.Format(rows))

	baseline := &bench.Baseline{Schema: bench.BaselineSchema, Config: cfg, Rows: rows}

	if *parallel {
		fmt.Println()
		prows, w, err := bench.RunParallel(ctx, cfg)
		check(err)
		fmt.Print(bench.FormatParallel(prows, w))
		baseline.Parallel, baseline.Workers = prows, w
		// Record the resolved fan-out width in the config too: Workers=0
		// means "GOMAXPROCS at run time", which the baseline must pin down.
		baseline.Config.EffectiveWorkers = w
		for _, r := range prows {
			if !r.Identical {
				fmt.Fprintf(os.Stderr, "hybench: %s parallel result differs from sequential\n", r.Query)
				os.Exit(1)
			}
		}
	}

	if *storage {
		fmt.Println()
		rep, err := bench.RunStorage(ctx, cfg)
		check(err)
		fmt.Print(bench.FormatStorage(rep))
		baseline.Storage = &rep
		if problems := bench.CheckStorage(&rep); len(problems) > 0 {
			fmt.Fprintln(os.Stderr, "hybench: storage check FAIL")
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "  "+p)
			}
			os.Exit(1)
		}
	}

	if *partitions != "" {
		counts, err := parseCounts(*partitions)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybench: -partitions: %v\n", err)
			os.Exit(2)
		}
		fmt.Println()
		rep, err := bench.RunPartitions(ctx, cfg, counts)
		check(err)
		fmt.Print(bench.FormatPartitions(rep))
		baseline.Partitions = &rep
		for _, lvl := range rep.Levels {
			if !lvl.Identical {
				fmt.Fprintf(os.Stderr, "hybench: %d-partition results differ from the single-engine oracle\n", lvl.Parts)
				os.Exit(1)
			}
		}
	}

	if *metrics {
		check(bench.DurableExercise(ctx, cfg, reg))
		snap := reg.Snapshot()
		baseline.Metrics = snap
		if problems := bench.CheckMetrics(snap); len(problems) > 0 {
			fmt.Fprintln(os.Stderr, "hybench: metrics check FAIL")
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "  "+p)
			}
			os.Exit(1)
		}
		fmt.Printf("\nmetrics: %d counters, %d timers, %d gauges — graphstore.wal.appends=%d tsstore.wal.appends=%d\n",
			len(snap.Counters), len(snap.Durations), len(snap.Gauges),
			snap.Counters["graphstore.wal.appends"], snap.Counters["tsstore.wal.appends"])
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		check(err)
		err = bench.WriteBaseline(f, baseline)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		check(err)
		fmt.Printf("\nbaseline written to %s\n", *jsonPath)
	}

	fmt.Println()
	problems := bench.ShapeCheck(rows, *shapeMin)
	if len(problems) == 0 {
		fmt.Printf("shape check: PASS — TTDB ≥%gx on Q4–Q6/Q8 and ahead everywhere, matching the paper's Table 1 shape\n", *shapeMin)
	} else {
		fmt.Println("shape check: FAIL")
		for _, p := range problems {
			fmt.Println("  " + p)
		}
		os.Exit(1)
	}
}
