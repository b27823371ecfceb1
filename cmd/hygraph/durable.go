// The durable-storage subcommands: `ingest` loads a bike-sharing workload
// into the crash-safe polyglot store under a data directory (optionally
// killing itself at an injected fault point), and `recover` rebuilds the
// store from the surviving artifacts and prints the recovery summary. The
// directory's layout belongs to ttdb (OpenDir, CompactDir).
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hygraph/internal/dataset"
	"hygraph/internal/faults"
	"hygraph/internal/storage/ttdb"
)

// openDir opens the durable engine stored in dir, exiting on failure.
func openDir(dir string) (*ttdb.DurablePolyglot, ttdb.PolyglotRecovery, io.Closer) {
	d, rec, closer, err := ttdb.OpenDir(dir)
	if err != nil {
		fail("recovery: " + err.Error())
	}
	return d, rec, closer
}

// parseCrash splits the -crash value "point[:nth]".
func parseCrash(spec string) (string, int) {
	point, nthStr, ok := strings.Cut(spec, ":")
	if !ok {
		return point, 1
	}
	nth, err := strconv.Atoi(nthStr)
	if err != nil || nth < 1 {
		fail("bad -crash spec " + spec + " (want point[:nth])")
	}
	return point, nth
}

// runIngest loads a generated bike-sharing workload through the durable
// ingest protocol. With -crash POINT[:NTH] it arms the fault point first, so
// the process dies mid-protocol exactly like a real crash — then `recover`
// demonstrates the repair putting the store back together.
func runIngest(dir string, stations int, crash string, seed int64) {
	d, rec, closer := openDir(dir)
	defer closer.Close()
	if rec.OrphanNodes+rec.OrphanSeries > 0 {
		fmt.Printf("note: prior crash detected, %d orphan station node(s) and %d orphan series removed in memory\n",
			rec.OrphanNodes, rec.OrphanSeries)
	}

	if crash != "" {
		point, nth := parseCrash(crash)
		faults.Enable(point, faults.Spec{Err: errors.New("injected crash via -crash"), Nth: nth})
		fmt.Printf("armed fault point %s (nth visit %d)\n", point, nth)
	}

	data := dataset.GenerateBike(dataset.BikeConfig{
		Stations: stations, Districts: 3, Days: 7, StepMinutes: 60, TripsPerSt: 2, Seed: seed})
	ids := make([]ttdb.StationID, 0, stations)
	for i, st := range data.Stations {
		id, err := d.IngestStation(st.Name, st.District, st.Availability)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hygraph: crashed ingesting station %d/%d: %v\n", i+1, stations, err)
			fmt.Fprintf(os.Stderr, "the store is torn on disk; run: hygraph recover -dir %s\n", dir)
			os.Exit(1)
		}
		ids = append(ids, id)
	}
	trips := 0
	for _, tr := range data.Trips {
		if err := d.AddTrip(ids[tr.From], ids[tr.To], tr.Count); err != nil {
			fmt.Fprintf(os.Stderr, "hygraph: crashed on trip %d->%d: %v\n", tr.From, tr.To, err)
			fmt.Fprintf(os.Stderr, "run: hygraph recover -dir %s\n", dir)
			os.Exit(1)
		}
		trips++
	}
	fmt.Printf("ingested %d stations, %d trips into %s (graph nodes: %d, series: %d)\n",
		len(ids), trips, dir, d.Engine().G.NumNodes(), d.Engine().T.NumSeries())
}

// runRecover rebuilds the store from the directory's artifacts and prints
// the recovery summary. With -compact it then writes fresh snapshots and
// truncates the logs, making the repair durable and the next start fast.
func runRecover(dir string, compact bool) {
	d, rec, closer := openDir(dir)
	defer closer.Close()
	eng := d.Engine()
	fmt.Println(rec.String())
	if err := ttdb.CheckConsistency(eng); err != nil {
		fail("store inconsistent after recovery: " + err.Error())
	}
	fmt.Printf("consistent: %d stations, %d series\n",
		len(eng.G.NodesByLabel("Station")), eng.T.NumSeries())
	if !compact {
		return
	}
	if err := ttdb.CompactDir(dir, eng); err != nil {
		fail("compaction: " + err.Error())
	}
	fmt.Println("compacted: snapshots written, logs truncated")
}
