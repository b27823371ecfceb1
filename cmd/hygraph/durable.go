// The durable-storage subcommands: `ingest` loads a bike-sharing workload
// into the crash-safe polyglot store under a data directory (optionally
// killing itself at an injected fault point), and `recover` rebuilds the
// store from the surviving artifacts and prints the recovery summary. The
// directory's layout belongs to ttdb (OpenDir, CompactDir). `ingest` writes
// through a one-partition coordinator, as the server does, so the directory
// is a tenant `serve` can serve.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hygraph/internal/coord"
	"hygraph/internal/dataset"
	"hygraph/internal/faults"
	"hygraph/internal/server"
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
// ingest protocol, placing stations with a coordinator attached to the
// directory's engine so each gets the next station id of the tenant. With
// -crash POINT[:NTH] it arms the fault point first, so the process dies
// mid-protocol exactly like a real crash — then `recover` demonstrates the
// repair putting the store back together. A directory named like one
// partition of a partitioned tenant is refused before anything is written.
func runIngest(dir string, stations int, crash string, seed int64) {
	if err := checkIngestDir(dir); err != nil {
		fail(err.Error())
	}
	d, rec, closer := openDir(dir)
	defer closer.Close()
	if rec.OrphanNodes+rec.OrphanSeries > 0 {
		fmt.Printf("note: prior crash detected, %d orphan station node(s) and %d orphan series removed in memory\n",
			rec.OrphanNodes, rec.OrphanSeries)
	}
	co, err := coord.Attach([]*ttdb.DurablePolyglot{d}, nil)
	if err != nil {
		fail("attach: " + err.Error())
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
		id, err := co.IngestStation(st.Name, st.District, st.Availability)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hygraph: crashed ingesting station %d/%d: %v\n", i+1, stations, err)
			fmt.Fprintf(os.Stderr, "the store is torn on disk; run: hygraph recover -dir %s\n", dir)
			os.Exit(1)
		}
		ids = append(ids, id)
	}
	trips := 0
	for _, tr := range data.Trips {
		if err := co.AddTrip(ids[tr.From], ids[tr.To], tr.Count); err != nil {
			fmt.Fprintf(os.Stderr, "hygraph: crashed on trip %d->%d: %v\n", tr.From, tr.To, err)
			fmt.Fprintf(os.Stderr, "run: hygraph recover -dir %s\n", dir)
			os.Exit(1)
		}
		trips++
	}
	fmt.Printf("ingested %d stations, %d trips into %s (graph nodes: %d, series: %d)\n",
		len(ids), trips, dir, d.Engine().G.NumNodes(), d.Engine().T.NumSeries())
}

// checkIngestDir refuses a directory the server names "<tenant>.p<i>":
// partition i of a tenant served over several partitions. The one-partition
// coordinator ingest attaches there sees only that partition's station ids,
// so it would number new stations with ids other partitions hold, and the
// next `serve -partitions N` could not open the tenant.
func checkIngestDir(dir string) error {
	if tenant, ok := server.PartitionOf(filepath.Base(filepath.Clean(dir))); ok {
		return fmt.Errorf("ingest: %s is one partition of tenant %q; ingest into a partitioned tenant through the server (POST /v1/tenants/%s/stations)", dir, tenant, tenant)
	}
	return nil
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
