package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"hygraph/internal/dataset"
	"hygraph/internal/hyql"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// runStats exercises every instrumented layer once over the bike workload —
// the canonical Q1–Q8 list on the polyglot engine, and a HyQL query over the
// equivalent HyGraph — then prints the registry snapshot as indented JSON. It
// is the quickest way to see which metrics exist and what a healthy run looks
// like.
func runStats(ctx context.Context, reg *obs.Registry, seed int64, workers int) {
	cfg := dataset.DefaultBike()
	cfg.Seed = seed
	data := dataset.GenerateBike(cfg)
	pg := ttdb.NewPolyglot(ts.Week)
	ids, err := data.LoadEngine(pg)
	if err != nil {
		fail(err.Error())
	}
	pg.SetWorkers(workers)
	pg.Instrument(reg)
	qs := data.Table1Queries(ids)
	for _, q := range qs {
		if _, err := pg.Exec(ctx, q); err != nil {
			fail(err.Error())
		}
	}
	qStart, qEnd := qs[len(qs)-1].Start, qs[len(qs)-1].End // the HyQL query reads the same window

	h, _ := data.ToHyGraph()
	eng := hyql.NewEngine(h)
	eng.Instrument(reg)
	src := fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a)
		WHERE st.name = 'station-000'
		RETURN st.name, ts.mean(a, %d, %d)`, qStart, qEnd)
	if _, err := eng.Query(src, qEnd); err != nil {
		fail(err.Error())
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reg.Snapshot()); err != nil {
		fail(err.Error())
	}
}
