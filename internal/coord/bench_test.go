package coord_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"hygraph/internal/coord"
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
