// Command hygraph is the CLI for the HyGraph reproduction: generate a
// synthetic workload, inspect it, run HyQL queries against it, and run the
// hybrid operators of Table 2.
//
// Usage:
//
//	hygraph generate -dataset bike|fraud|iot [-seed S]
//	hygraph query    -dataset bike|fraud|iot [-seed S] [-at MS] 'MATCH ... RETURN ...'
//	hygraph analyze  -dataset bike|fraud|iot [-seed S] -op correlate|aggregate|segment|anomalies|motifs
//	hygraph repl     -dataset bike|fraud|iot [-seed S]
//	hygraph ingest   -dir DIR [-stations N] [-seed S] [-crash POINT[:NTH]]
//	hygraph recover  -dir DIR [-compact]
//	hygraph stats    [-seed S] [-workers N]
//	hygraph serve    -dir DIR [-addr HOST:PORT] [-rate R] [-maxconc N]
//	                 [-maxqueue N] [-drain DUR] [-partitions N] [-smoke]
//
// serve runs the hardened network query service (internal/server,
// docs/SERVICE.md) over the durable store directory: per-tenant HyQL, Q1–Q8
// and ingest with admission control, request deadlines, and a SIGTERM drain
// that flushes the group-commit WALs before exit. Every tenant is served by
// the scatter-gather coordinator (docs/PARTITIONING.md) over -partitions N
// engines: the subdirectory <tenant> at N = 1, <tenant>.pI above that.
// -smoke runs the self-contained CI smoke instead, at one and at two
// partitions: random port, a client mix including one forced shed and one
// deadline-exceeded request, graceful stop, and a recovery check by a second
// server over the same directory.
//
// ingest writes through the same coordinator, over the one engine in DIR, so
// `ingest -dir R/t` leaves a tenant that `serve -dir R` serves as t.
//
// Every command accepts -debug-addr ADDR to serve net/http/pprof, expvar and
// the observability snapshot (/debug/obs) for the life of the process; stats
// runs an instrumented pass over the bike workload and prints the snapshot.
//
// Unknown subcommands and flags exit 2 with a usage message.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/hyql"
	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// commands is the closed set of subcommands; anything else is a usage error
// before any flag parsing or dataset generation happens.
var commands = map[string]bool{
	"generate": true, "query": true, "analyze": true, "repl": true,
	"ingest": true, "recover": true, "stats": true, "serve": true,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	switch {
	case cmd == "help" || cmd == "-h" || cmd == "-help" || cmd == "--help":
		usage()
		return
	case !commands[cmd]:
		fmt.Fprintf(os.Stderr, "hygraph: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}

	// ContinueOnError (not ExitOnError) so a bad flag prints the full
	// command usage, not just the flag table, and still exits non-zero.
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	ds := fs.String("dataset", "fraud", "workload: bike, fraud, or iot")
	seed := fs.Int64("seed", 1, "generator seed")
	at := fs.Int64("at", -1, "query instant in epoch ms (-1 = mid-series)")
	op := fs.String("op", "correlate", "analyze operator: correlate, aggregate, segment, anomalies, motifs")
	dir := fs.String("dir", "hygraph-data", "durable store directory (ingest/recover/serve)")
	stations := fs.Int("stations", 8, "stations to ingest (ingest)")
	crash := fs.String("crash", "", "fault point to crash at, e.g. ttdb.ingest.ts[:nth] (ingest)")
	compact := fs.Bool("compact", false, "snapshot and truncate logs after recovery (recover)")
	workers := fs.Int("workers", 0, "fan-out width for stats and serve (0 = sequential / GOMAXPROCS)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address")
	addr := fs.String("addr", "127.0.0.1:8091", "listen address (serve)")
	rate := fs.Float64("rate", 0, "per-tenant admitted request rate, req/s; 0 = unlimited (serve)")
	maxConc := fs.Int("maxconc", 0, "max concurrent requests; 0 = 4x GOMAXPROCS (serve)")
	maxQueue := fs.Int("maxqueue", 0, "max queued requests; 0 = 4x maxconc (serve)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain bound (serve)")
	smoke := fs.Bool("smoke", false, "run the self-contained server smoke and exit (serve)")
	partitions := fs.Int("partitions", 1, "engines per tenant behind the scatter-gather coordinator; stored as <tenant> at 1, <tenant>.pI above (serve)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}

	// Commands that take no positional arguments must reject strays instead
	// of silently ignoring them — a misquoted shell line should fail loudly.
	if cmd != "query" && fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hygraph %s: unexpected argument %q\n", cmd, fs.Arg(0))
		usage()
		os.Exit(2)
	}

	// One registry backs the stats command, the serve subcommand's metrics
	// endpoint, and the debug server; other commands leave it nil, which
	// keeps instrumentation at its nil-sink zero-overhead path.
	var reg *obs.Registry
	if cmd == "stats" || cmd == "serve" || *debugAddr != "" {
		reg = obs.New()
	}
	var dbg *obs.DebugServer
	if *debugAddr != "" {
		var err error
		dbg, err = obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fail(err.Error())
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/ (pprof, vars, obs)\n", dbg.Addr())
	}

	if cmd == "stats" {
		runStats(context.Background(), reg, *seed, *workers)
		return
	}

	// The durable-storage commands operate on a data directory, not on a
	// generated HyGraph instance.
	switch cmd {
	case "ingest":
		runIngest(*dir, *stations, *crash, *seed)
		return
	case "recover":
		runRecover(*dir, *compact)
		return
	case "serve":
		if *smoke {
			runServeSmoke(*dir)
			return
		}
		runServe(*addr, *dir, *rate, *maxConc, *maxQueue, *workers, *partitions, *drain, reg, dbg)
		return
	}

	h, mid := buildDataset(*ds, *seed)
	when := ts.Time(*at)
	if *at < 0 {
		when = mid
	}

	switch cmd {
	case "generate":
		fmt.Println(h)
		pv, pe := h.CountByKind(core.PG)
		tv, te := h.CountByKind(core.TS)
		fmt.Printf("PG vertices: %d, TS vertices: %d, PG edges: %d, TS edges: %d\n", pv, tv, pe, te)
	case "query":
		if fs.NArg() < 1 {
			fail("query: missing HyQL string")
		}
		runQuery(h, strings.Join(fs.Args(), " "), when, reg)
	case "repl":
		repl(h, when, reg)
	case "analyze":
		analyze(h, *op, when)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hygraph generate -dataset bike|fraud|iot [-seed S]
  hygraph query    -dataset ... [-at MS] 'MATCH ... RETURN ...'
  hygraph analyze  -dataset ... -op correlate|aggregate|segment|anomalies|motifs
  hygraph repl     -dataset ...
  hygraph ingest   -dir DIR [-stations N] [-seed S] [-crash POINT[:NTH]]
  hygraph recover  -dir DIR [-compact]
  hygraph stats    [-seed S] [-workers N] [-debug-addr ADDR]
  hygraph serve    -dir DIR [-addr HOST:PORT] [-rate R] [-maxconc N]
                   [-maxqueue N] [-drain DUR] [-partitions N] [-smoke]`)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hygraph: "+msg)
	os.Exit(1)
}

// buildDataset generates the requested workload and a reasonable "as of"
// query instant (mid-series).
func buildDataset(name string, seed int64) (*core.HyGraph, ts.Time) {
	switch name {
	case "bike":
		cfg := dataset.DefaultBike()
		cfg.Seed = seed
		d := GenerateBikeHG(cfg)
		_, end := ts.Time(0), ts.Time(cfg.Days)*ts.Day
		return d, end / 2
	case "fraud":
		cfg := dataset.DefaultFraud()
		cfg.Seed = seed
		d := dataset.GenerateFraud(cfg)
		return d.H, ts.Time(cfg.Hours/2) * ts.Hour
	case "iot":
		cfg := dataset.DefaultIoT()
		cfg.Seed = seed
		d := dataset.GenerateIoT(cfg)
		return d.H, ts.Time(cfg.Hours/2) * ts.Hour
	}
	fail("unknown dataset " + name)
	return nil, 0
}

// GenerateBikeHG builds the bike workload as a HyGraph.
func GenerateBikeHG(cfg dataset.BikeConfig) *core.HyGraph {
	d := dataset.GenerateBike(cfg)
	h, _ := d.ToHyGraph()
	return h
}

func runQuery(h *core.HyGraph, src string, at ts.Time, reg *obs.Registry) {
	eng := hyql.NewEngine(h)
	eng.Instrument(reg)
	res, err := eng.Query(src, at)
	if err != nil {
		fail(err.Error())
	}
	printResult(res)
}

func printResult(res *hyql.Result) {
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

func repl(h *core.HyGraph, at ts.Time, reg *obs.Registry) {
	eng := hyql.NewEngine(h)
	eng.Instrument(reg)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Printf("HyQL REPL over %s (as of %s). Blank line to quit.\n", h, at)
	fmt.Print("hyql> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			return
		}
		res, err := eng.Query(line, at)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			printResult(res)
		}
		fmt.Print("hyql> ")
	}
}

func analyze(h *core.HyGraph, op string, at ts.Time) {
	switch op {
	case "correlate":
		n, err := h.CorrelationEdges(0.9, ts.Hour, 24)
		if err != nil {
			fail(err.Error())
		}
		fmt.Printf("added %d SIMILAR edges between correlated series (|r| >= 0.9)\n", n)
	case "aggregate":
		out, groups, err := h.HybridAggregate(core.AggregateSpec{
			GroupKey: func(v *core.Vertex) string {
				for _, key := range []string{"district", "line"} {
					if s, ok := v.Prop(key).AsString(); ok {
						return s
					}
				}
				return "all"
			},
			Bucket:    ts.Day,
			SeriesAgg: ts.AggMean,
			Combine:   ts.AggSum,
		})
		if err != nil {
			fail(err.Error())
		}
		fmt.Printf("aggregated into %d groups: %s\n", len(groups), out)
	case "segment":
		driver := h.ActivitySeries(0, at*2, ts.Hour)
		snaps := h.SegmentSnapshots(driver, 4, 0.02)
		fmt.Printf("segmented activity into %d regimes:\n", len(snaps))
		for _, s := range snaps {
			fmt.Printf("  from %s: mean activity %.1f, snapshot %s\n",
				s.Segment.Start, s.Segment.Mean, s.View.Graph)
		}
	case "anomalies":
		res := h.AnomalyCommunities(at, 24, 6, 1)
		fmt.Printf("scored %d communities (most anomalous first):\n", len(res))
		for i, c := range res {
			if i >= 5 {
				break
			}
			fmt.Printf("  community %d: score %.2f, %d members\n", c.Community, c.Score, len(c.Members))
		}
	case "motifs":
		groups := h.MotifPatterns(8, 4, 2)
		fmt.Printf("found %d motif groups (shared SAX words):\n", len(groups))
		for i, g := range groups {
			if i >= 5 {
				break
			}
			fmt.Printf("  %q: %d members, %d induced edges\n", g.Word, len(g.Members), g.InducedEdges)
		}
	default:
		fail("unknown op " + op)
	}
}
