package hyql

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// copySnapshot is the reference projection: a fresh copy of every element
// whose EffectiveValid contains t, built element by element from the
// instance, with no shared structure and no memo.
func copySnapshot(h *core.HyGraph, t ts.Time) *core.View {
	view := &core.View{
		At:       t,
		Graph:    lpg.NewGraph(),
		VertexOf: map[core.VID]lpg.VertexID{},
		HyV:      map[lpg.VertexID]core.VID{},
		HyE:      map[lpg.EdgeID]core.EID{},
	}
	h.Vertices(func(v *core.Vertex) bool {
		if !v.EffectiveValid().Contains(t) {
			return true
		}
		id := view.Graph.AddVertex(v.Labels...)
		for _, k := range v.PropKeys() {
			view.Graph.SetVertexProp(id, k, v.Prop(k))
		}
		view.Graph.SetVertexProp(id, core.KindPropKey, lpg.Str(v.Kind.String()))
		if v.Kind == core.TS {
			view.Graph.SetVertexProp(id, core.SeriesPropKey, lpg.MultiVal(v.Series))
		}
		view.VertexOf[v.ID] = id
		view.HyV[id] = v.ID
		return true
	})
	h.Edges(func(e *core.Edge) bool {
		if !e.EffectiveValid().Contains(t) {
			return true
		}
		from, okF := view.VertexOf[e.From]
		to, okT := view.VertexOf[e.To]
		if !okF || !okT {
			return true
		}
		id := view.Graph.AddEdge(from, to, e.Label)
		for _, k := range e.PropKeys() {
			view.Graph.SetEdgeProp(id, k, e.Prop(k))
		}
		view.Graph.SetEdgeProp(id, core.KindPropKey, lpg.Str(e.Kind.String()))
		if e.Kind == core.TS {
			view.Graph.SetEdgeProp(id, core.SeriesPropKey, lpg.MultiVal(e.Series))
		}
		view.HyE[id] = e.ID
		return true
	})
	return view
}

// boundaries lists, ascending, the instants just before, at and just after
// the start and end of every element's EffectiveValid.
func boundaries(h *core.HyGraph) []ts.Time {
	out := []ts.Time{-1, 0}
	add := func(iv tpg.Interval) {
		for _, b := range []ts.Time{iv.Start, iv.End} {
			if b > -1<<40 && b < 1<<40 {
				out = append(out, b-1, b, b+1)
			}
		}
	}
	h.Vertices(func(v *core.Vertex) bool { add(v.EffectiveValid()); return true })
	h.Edges(func(e *core.Edge) bool { add(e.EffectiveValid()); return true })
	slices.Sort(out)
	return slices.Compact(out)
}

// sameAsCopy requires the engine's graph at `at`, and SnapshotAt with its id
// maps, to equal the reference copy.
func sameAsCopy(t *testing.T, label string, h *core.HyGraph, eng *Engine, at ts.Time) {
	t.Helper()
	want := copySnapshot(h, at)
	if got, w := dumpGraph(eng.graphAt(at)), dumpGraph(want.Graph); got != w {
		t.Fatalf("%s at %d: engine\n%s\ncopy\n%s", label, at, got, w)
	}
	snap := h.SnapshotAt(at)
	if got, w := dumpGraph(snap.Graph), dumpGraph(want.Graph); got != w {
		t.Fatalf("%s at %d: SnapshotAt\n%s\ncopy\n%s", label, at, got, w)
	}
	if !reflect.DeepEqual(snap.VertexOf, want.VertexOf) || !reflect.DeepEqual(snap.HyV, want.HyV) ||
		!reflect.DeepEqual(snap.HyE, want.HyE) {
		t.Fatalf("%s at %d: SnapshotAt maps %v %v %v, copy %v %v %v", label, at,
			snap.VertexOf, snap.HyV, snap.HyE, want.VertexOf, want.HyV, want.HyE)
	}
}

func multi(t *testing.T, times ...ts.Time) *ts.MultiSeries {
	t.Helper()
	m, err := ts.NewMulti("s", "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range times {
		if err := m.Append(at, float64(at%7)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestHyGraphQueriesFollowEveryMutation: after each kind of write to an
// instance — structural, property, validity, and in-place appends and
// backfills to its series — the engine it has served queries through
// answers, at every instant around every ρ and span, exactly as a fresh
// copy of the instance at that instant does.
func TestHyGraphQueriesFollowEveryMutation(t *testing.T) {
	h := core.New()
	eng := NewEngine(h)
	queries := []string{
		`MATCH (a)-[r]->(b) RETURN a, r, b, a.name, r.w`,
		`MATCH (n:Hub) WHERE n.name = 'h1' RETURN n, label(n)`,
		`MATCH (n) RETURN count(*)`,
	}
	var hubs, sensors []core.VID
	var sims []*ts.MultiSeries
	var ended core.EID
	steps := []struct {
		name string
		do   func() error
	}{
		{"AddVertex", func() error {
			for i, iv := range []tpg.Interval{tpg.Between(10, 50), tpg.Always, tpg.Between(30, 31)} {
				v, err := h.AddVertex(iv, "Hub")
				if err != nil {
					return err
				}
				h.SetVertexProp(v, "name", lpg.Str(fmt.Sprintf("h%d", i)))
				hubs = append(hubs, v)
			}
			return nil
		}},
		{"AddTSVertex", func() error {
			for _, span := range [][]ts.Time{{20, 25, 40}, {5, 45}, {60}, nil} {
				v, err := h.AddTSVertex(multi(t, span...), "Sensor")
				if err != nil {
					return err
				}
				sensors = append(sensors, v)
			}
			return nil
		}},
		{"AddEdge", func() error {
			for i, s := range sensors {
				if _, err := h.AddEdge(hubs[i%len(hubs)], s, "HAS", tpg.Between(0, 35)); err != nil {
					return err
				}
			}
			var err error
			ended, err = h.AddEdge(hubs[0], hubs[1], "LINK", tpg.From(12))
			return err
		}},
		{"AddTSEdge", func() error {
			m := multi(t, 15, 25)
			sims = append(sims, m)
			_, err := h.AddTSEdge(hubs[1], sensors[1], "FLOW", m)
			return err
		}},
		{"SetVertexProp", func() error { return h.SetVertexProp(hubs[2], "name", lpg.Str("h1")) }},
		{"SetEdgeProp", func() error { return h.SetEdgeProp(ended, "w", lpg.Int(3)) }},
		{"EndEdge", func() error { return h.EndEdge(ended, 28) }},
		{"CorrelationEdges", func() error {
			for i := ts.Time(0); i < 8; i++ {
				h.Vertex(sensors[0]).Series.Upsert(50+i, float64(i))
				h.Vertex(sensors[1]).Series.Upsert(50+i, float64(2*i))
			}
			n, err := h.CorrelationEdges(0.9, 1, 2)
			if err == nil && n == 0 {
				err = fmt.Errorf("no SIMILAR edge added")
			}
			return err
		}},
		{"DegreeEvolution", func() error { return h.DegreeEvolution(0, 60, 10) }},
		{"Append", func() error {
			if err := h.Vertex(sensors[3]).Series.Append(70, 1); err != nil {
				return err
			}
			return sims[0].Append(80, 1)
		}},
		{"Upsert", func() error {
			if err := h.Vertex(sensors[2]).Series.Upsert(1, 1); err != nil {
				return err
			}
			return sims[0].Upsert(2, 1)
		}},
	}
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for _, at := range boundaries(h) {
			sameAsCopy(t, step.name, h, eng, at)
			for _, src := range queries {
				q, err := Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Exec(q, at)
				if err != nil {
					t.Fatalf("%s: %q at %d: %v", step.name, src, at, err)
				}
				want, err := NewEngine(nil).exec(q, copySnapshot(h, at).Graph)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
					t.Fatalf("%s: %q at %d: engine %s, copy %s", step.name, src, at, g, w)
				}
			}
		}
	}
}

// FuzzViewEqualsSnapshot: fuzz bytes build a small instance — PG vertices
// and edges with random ρ, TS vertices and edges with random spans, some
// empty — interleaving writes and appends with queries at random instants,
// and every graph the engine matches against equals the reference copy.
//
//	go test ./internal/hyql -run FuzzViewEqualsSnapshot -fuzz FuzzViewEqualsSnapshot -fuzztime 30s
func FuzzViewEqualsSnapshot(f *testing.F) {
	f.Add([]byte{0, 3, 9, 1, 2, 10, 20, 2, 0, 1, 4, 9, 7, 15, 3, 1, 0, 2, 5, 8, 6, 0, 12, 7, 30, 4, 1, 40, 7, 41})
	f.Add([]byte{1, 0, 1, 3, 5, 9, 3, 0, 1, 1, 2, 7, 4, 7, 7, 20, 5, 0, 1, 7, 2, 8, 1, 7, 0, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		at := func() ts.Time { return ts.Time(next()%48) - 4 }
		h := core.New()
		eng := NewEngine(h)
		var series []*ts.MultiSeries
		nv, ne := 0, 0
		for len(data) > 0 {
			switch next() % 9 {
			case 0:
				start := at()
				h.AddVertex(tpg.Between(start, start+ts.Time(next()%24)), "V")
				nv++
			case 1, 3:
				m := multi(t)
				for i := next() % 4; i > 0; i-- {
					m.Upsert(at(), 1)
				}
				series = append(series, m)
				if nv < 2 || next()%2 == 0 {
					h.AddTSVertex(m, "S")
					nv++
				} else if _, err := h.AddTSEdge(core.VID(next()%nv), core.VID(next()%nv), "T", m); err == nil {
					ne++
				}
			case 2:
				if nv > 0 {
					start := at()
					if _, err := h.AddEdge(core.VID(next()%nv), core.VID(next()%nv), "E",
						tpg.Between(start, start+ts.Time(next()%24))); err == nil {
						ne++
					}
				}
			case 4:
				if len(series) > 0 {
					m := series[next()%len(series)]
					m.Append(max(m.End()+1, at()), 2)
				}
			case 5:
				if len(series) > 0 {
					series[next()%len(series)].Upsert(at(), 3)
				}
			case 6:
				if ne > 0 {
					h.EndEdge(core.EID(next()%ne), at())
				}
			case 7:
				sameAsCopy(t, "fuzz", h, eng, at())
			case 8:
				if nv > 0 {
					h.SetVertexProp(core.VID(next()%nv), "name", lpg.Str(fmt.Sprint(next()%3)))
				}
			}
		}
		for _, b := range boundaries(h) {
			sameAsCopy(t, "end", h, eng, b)
		}
	})
}
