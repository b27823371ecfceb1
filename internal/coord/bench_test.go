package coord_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// encoded keeps BenchmarkQ8's encodes live.
var encoded []byte

// BenchmarkQ8 measures Q8 on 300 stations with four trips each, on one
// engine and through a coordinator at one and two partitions, the neighbour
// means asked over the middle week of propSeries' two. On the same setup,
// Q4/<layer>, Q5/<layer> and Q6/<layer> measure the all-station answers over
// that window, each encoded with AppendJSON as the server sends it.
func BenchmarkQ8(b *testing.B) {
	const n = 300
	rng := rand.New(rand.NewSource(3))
	var trips [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			trips = append(trips, [2]int{i, rng.Intn(n)})
		}
	}
	eng := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	var ids []ttdb.StationID
	for i := 0; i < n; i++ {
		id, err := eng.IngestStation(uint64(i)+1, fmt.Sprintf("st-%03d", i), "d", propSeries(i))
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, tr := range trips {
		if err := eng.AddTrip(ids[tr[0]], ids[tr[1]], 1); err != nil {
			b.Fatal(err)
		}
	}
	engines := []struct {
		name string
		e    ttdb.Querier
		ids  []ttdb.StationID
	}{{"engine", eng, ids}}
	for _, parts := range []int{1, 2} {
		c, err := coord.NewMem(parts, ts.Week)
		if err != nil {
			b.Fatal(err)
		}
		var gids []ttdb.StationID
		for i := 0; i < n; i++ {
			gid, err := c.IngestStation(fmt.Sprintf("st-%03d", i), "d", propSeries(i))
			if err != nil {
				b.Fatal(err)
			}
			gids = append(gids, gid)
		}
		for _, tr := range trips {
			if err := c.AddTrip(gids[tr[0]], gids[tr[1]], 1); err != nil {
				b.Fatal(err)
			}
		}
		engines = append(engines, struct {
			name string
			e    ttdb.Querier
			ids  []ttdb.StationID
		}{fmt.Sprintf("coord%d", parts), c, gids})
	}
	ctx := context.Background()
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.e.Exec(ctx, ttdb.Q8(e.ids[i%n], propSpan/4, 3*propSpan/4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, q := range []ttdb.Query{ttdb.Q4(propSpan/4, 3*propSpan/4), ttdb.Q5(propSpan/4, 3*propSpan/4), ttdb.Q6(propSpan/4, 3*propSpan/4, 10)} {
		for _, e := range engines {
			b.Run(q.Op.String()+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := e.e.Exec(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					encoded = res.AppendJSON(nil)
				}
			})
		}
	}
}

// servedGraph keeps BenchmarkHyQLServed's GraphAt calls live.
var servedGraph *lpg.Graph

// BenchmarkHyQLServed times the served HyQL panels in process: H1–H4 as
// hymark's hyql_live spells them (HyQLText in benchmark/mark), over the
// structure of 100 stations × 90 days of hourly samples in a one-partition
// coordinator as a fixed source, asked at the last loaded hour about
// the trailing 30 days. <H>/Query parses and executes; H1/Exec executes a
// query parsed once; GraphAt is the per-query validity decision alone, on a View of the same
// structure.
func BenchmarkHyQLServed(b *testing.B) {
	const stations, days = 100, 90
	c, err := coord.NewMem(1, ts.Week)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	gids := make([]ttdb.StationID, stations)
	for i := range gids {
		s := ts.New("availability")
		for h := 0; h < days*24; h++ {
			s.MustAppend(ts.Time(h)*ts.Hour, float64(rng.Intn(40)))
		}
		if gids[i], err = c.IngestStation(fmt.Sprintf("st-%04d", i), fmt.Sprintf("district-%02d", i%12), s); err != nil {
			b.Fatal(err)
		}
	}
	for i := range gids {
		for k := 0; k < 4; k++ {
			if o := rng.Intn(stations); o != i {
				if err := c.AddTrip(gids[i], gids[o], 1+rng.Intn(200)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	structure := c.Structure()
	view := hyql.NewView(structure, nil, nil)
	eng := hyql.NewEngine(fixed{structure})
	at := ts.Time(days*24-1) * ts.Hour
	end := ts.Time(days) * ts.Day
	start := end - 30*ts.Day
	texts := []string{
		fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) WHERE st.name = 'st-0042' RETURN ts.mean(a, %d, %d)`, start, end),
		fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.district, sum(ts.sum(a, %d, %d))`, start, end),
		fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.name AS name, ts.mean(a, %d, %d) AS m ORDER BY m DESC, name LIMIT 10`, start, end),
		fmt.Sprintf(`MATCH (st:Station)-[:TRIP]-(n:Station)-[:HAS_SERIES]->(a) WHERE st.name = 'st-0042' RETURN DISTINCT n.name, ts.mean(a, %d, %d)`, start, end),
	}
	for i, text := range texts {
		b.Run(fmt.Sprintf("H%d/Query", i+1), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if res, err := eng.Query(text, at); err != nil || len(res.Rows) == 0 {
					b.Fatalf("%q: %v rows, err %v", text, res, err)
				}
			}
		})
	}
	b.Run("H1/Exec", func(b *testing.B) {
		q, err := hyql.Parse(texts[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := eng.Exec(q, at); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GraphAt", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			servedGraph = view.GraphAt(at)
		}
	})
}
