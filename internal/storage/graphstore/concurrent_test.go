package graphstore

import (
	"reflect"
	"sync"
	"testing"
)

// Concurrent readers across the whole read surface must be race-free and
// agree with single-threaded answers while writers extend the graph.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db := New()
	var stations []NodeID
	for i := 0; i < 10; i++ {
		st := db.CreateNode("Station")
		if err := db.SetNodeProp(st, "district", StrVal([]string{"n", "s"}[i%2])); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	for i := range stations {
		if _, err := db.CreateRel(stations[i], stations[(i+1)%len(stations)], "TRIP"); err != nil {
			t.Fatal(err)
		}
	}
	wantNeighbors := db.Neighbors(stations[0], "TRIP")

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				st := stations[(c+i)%len(stations)]
				db.NumNodes()
				db.NodeExists(st)
				db.NodeProps(st, func(string, PropValue) bool { return true })
				db.Rels(st, func(Rel) bool { return true })
				if got := db.Neighbors(stations[0], "TRIP"); !reflect.DeepEqual(got, wantNeighbors) {
					t.Error("Neighbors unstable under concurrency")
					return
				}
				if got, ok := db.NodeProp(stations[3], "district"); !ok || got.S != "s" {
					t.Error("NodeProp unstable under concurrency")
					return
				}
				if got := db.NodesByLabel("Station"); len(got) < len(stations) {
					t.Error("NodesByLabel lost nodes")
					return
				}
			}
		}(c)
	}
	// Writers add disjoint subgraphs alongside the readers.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				n := db.CreateNode("Depot")
				if err := db.SetNodeProp(n, "i", IntVal(int64(i))); err != nil {
					t.Error(err)
					return
				}
				m := db.CreateNode("Depot")
				r, err := db.CreateRel(n, m, "FEEDS")
				if err != nil {
					t.Error(err)
					return
				}
				if err := db.SetRelProp(r, "w", IntVal(1)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 { // i = 0, 3, 6, 9: m goes, and r with it
					if err := db.DeleteNode(m); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if got := len(db.NodesByLabel("Depot")); got != 2*(2*10-4) {
		t.Fatalf("depots after concurrent ingest: %d", got)
	}
}
