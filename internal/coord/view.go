package coord

import (
	"hygraph/internal/lpg"
	"hygraph/internal/storage/ttdb"
)

// Structure lays the whole partitioned deployment out as the graph HyQL
// matches against (ttdb.BuildView): stations in ingest (gid) order, logical
// trips in ingest order, and each station's series as a handle onto the
// partition that owns it. No sample leaves its partition until a ts.*
// function asks for it, so HyQL answers identically over a partitioned tenant
// and a single-engine one at O(touched chunks) per query. The graph is a
// snapshot of structure only: it goes stale when a station or trip is
// written or the coordinator repartitions, never when a point is appended.
func (c *Coordinator) Structure() *lpg.Graph {
	c.mu.RLock()
	defer c.mu.RUnlock()
	index := make(map[ttdb.StationID]int, len(c.order))
	stations := make([]ttdb.ViewStation, len(c.order))
	for i, gid := range c.order {
		m := c.meta[gid]
		index[gid] = i
		stations[i] = ttdb.ViewStation{
			Name: m.name, District: m.district,
			Series: c.parts[m.part].Engine().Series(m.local),
		}
	}
	trips := make([]ttdb.ViewTrip, 0, len(c.trips))
	for _, tr := range c.trips {
		from, okF := index[tr.a]
		to, okT := index[tr.b]
		if okF && okT {
			trips = append(trips, ttdb.ViewTrip{From: from, To: to, Count: int64(tr.count)})
		}
	}
	return ttdb.BuildView(stations, trips)
}
