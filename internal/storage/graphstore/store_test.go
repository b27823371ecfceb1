package graphstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCreateAndLabels(t *testing.T) {
	db := New()
	a := db.CreateNode("Station", "Dock")
	b := db.CreateNode("Station")
	if db.NumNodes() != 2 {
		t.Fatalf("nodes=%d", db.NumNodes())
	}
	if got := db.NodesByLabel("Dock"); len(got) != 1 || got[0] != a {
		t.Fatalf("by second label=%v", got)
	}
	got := db.NodesByLabel("Station")
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("by label=%v", got)
	}
	if db.NodesByLabel("Nope") != nil {
		t.Fatal("unknown label")
	}
	if db.NodeExists(99) {
		t.Fatal("missing node exists")
	}
}

func TestRelChains(t *testing.T) {
	db := New()
	a := db.CreateNode("A")
	b := db.CreateNode("B")
	c := db.CreateNode("C")
	r1, err := db.CreateRel(a, b, "KNOWS")
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := db.CreateRel(a, c, "KNOWS")
	r3, _ := db.CreateRel(b, a, "LIKES")
	// a participates in all three.
	var seen []RelID
	db.Rels(a, func(r Rel) bool { seen = append(seen, r.ID); return true })
	if len(seen) != 3 {
		t.Fatalf("a's chain=%v", seen)
	}
	// b participates in r1 and r3.
	seen = seen[:0]
	db.Rels(b, func(r Rel) bool { seen = append(seen, r.ID); return true })
	if len(seen) != 2 {
		t.Fatalf("b's chain=%v", seen)
	}
	_ = r1
	_ = r2
	_ = r3
	// Missing endpoint errors.
	if _, err := db.CreateRel(a, 99, "X"); err == nil {
		t.Fatal("rel to missing node accepted")
	}
	// Neighbors by type.
	if got := db.Neighbors(a, "KNOWS"); len(got) != 2 {
		t.Fatalf("KNOWS=%v", got)
	}
	if got := db.Neighbors(a, ""); len(got) != 2 { // b and c
		t.Fatalf("neighbors=%v", got)
	}
	if got := db.Neighbors(b, "LIKES"); len(got) != 1 || got[0] != a {
		t.Fatalf("b LIKES=%v", got)
	}
}

func TestSelfLoop(t *testing.T) {
	db := New()
	a := db.CreateNode("A")
	if _, err := db.CreateRel(a, a, "SELF"); err != nil {
		t.Fatal(err)
	}
	count := 0
	db.Rels(a, func(Rel) bool { count++; return true })
	if count != 1 {
		t.Fatalf("self loop visited %d times", count)
	}
	if got := db.Neighbors(a, ""); len(got) != 0 {
		t.Fatalf("self neighbor=%v", got)
	}
}

func TestPropertyChains(t *testing.T) {
	db := New()
	a := db.CreateNode("A")
	if err := db.SetNodeProp(a, "x", IntVal(1)); err != nil {
		t.Fatal(err)
	}
	db.SetNodeProp(a, "y", FloatVal(2.5))
	db.SetNodeProp(a, "s", StrVal("hello"))
	db.SetNodeProp(a, "b", BoolVal(true))
	if v, ok := db.NodeProp(a, "x"); !ok || v.I != 1 {
		t.Fatalf("x=%v", v)
	}
	if v, ok := db.NodeProp(a, "y"); !ok || v.F != 2.5 {
		t.Fatalf("y=%v", v)
	}
	if v, ok := db.NodeProp(a, "s"); !ok || v.S != "hello" {
		t.Fatalf("s=%v", v)
	}
	if v, ok := db.NodeProp(a, "b"); !ok || !v.B {
		t.Fatalf("b=%v", v)
	}
	// Update in place.
	db.SetNodeProp(a, "x", IntVal(42))
	if n := chainLen(db, a); n != 4 {
		t.Fatalf("chain length=%d after update", n)
	}
	if v, _ := db.NodeProp(a, "x"); v.I != 42 {
		t.Fatalf("x after update=%v", v)
	}
	// Missing key / node.
	if _, ok := db.NodeProp(a, "nope"); ok {
		t.Fatal("missing key")
	}
	if _, ok := db.NodeProp(99, "x"); ok {
		t.Fatal("missing node")
	}
	if err := db.SetNodeProp(99, "x", IntVal(1)); err == nil {
		t.Fatal("set on missing node")
	}
}

func TestRemovePropRecycles(t *testing.T) {
	db := New()
	a := db.CreateNode("A")
	for i := 0; i < 5; i++ {
		db.SetNodeProp(a, fmt.Sprintf("k%d", i), IntVal(int64(i)))
	}
	sh, _ := db.nodeShardOf(a)
	before := len(sh.props.recs)
	if !db.RemoveNodeProp(a, "k2") {
		t.Fatal("remove existing")
	}
	if db.RemoveNodeProp(a, "k2") {
		t.Fatal("double remove")
	}
	if n := chainLen(db, a); n != 4 {
		t.Fatalf("count after remove=%d", n)
	}
	// A new property reuses the freed record.
	db.SetNodeProp(a, "k9", IntVal(9))
	if len(sh.props.recs) != before || len(sh.props.free) != 0 {
		t.Fatalf("records grew: %d -> %d (%d free)", before, len(sh.props.recs), len(sh.props.free))
	}
	if v, ok := db.NodeProp(a, "k9"); !ok || v.I != 9 {
		t.Fatal("recycled record value")
	}
}

func TestRelProps(t *testing.T) {
	db := New()
	a := db.CreateNode("A")
	b := db.CreateNode("B")
	r, _ := db.CreateRel(a, b, "T")
	if err := db.SetRelProp(r, "w", FloatVal(1.5)); err != nil {
		t.Fatal(err)
	}
	if v, ok := db.RelProp(r, "w"); !ok || v.F != 1.5 {
		t.Fatalf("w=%v", v)
	}
	if err := db.SetRelProp(99, "w", IntVal(1)); err == nil {
		t.Fatal("missing rel")
	}
}

func TestPropValueRendering(t *testing.T) {
	if IntVal(3).String() != "3" || FloatVal(2.5).String() != "2.5" ||
		StrVal("x").String() != "x" || BoolVal(true).String() != "true" {
		t.Fatal("renderings")
	}
	if f, ok := IntVal(3).AsFloat(); !ok || f != 3 {
		t.Fatal("int as float")
	}
	if _, ok := StrVal("x").AsFloat(); ok {
		t.Fatal("string as float")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(1))
	var nodes []NodeID
	for i := 0; i < 20; i++ {
		nodes = append(nodes, db.CreateNode([]string{"A", "B"}[i%2]))
	}
	for i := 0; i < 40; i++ {
		a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		r, _ := db.CreateRel(a, b, "T")
		db.SetRelProp(r, "w", FloatVal(rng.Float64()))
	}
	for _, n := range nodes {
		db.SetNodeProp(n, "x", IntVal(int64(n)))
		db.SetNodeProp(n, "name", StrVal(fmt.Sprintf("node-%d", n)))
	}
	db.RemoveNodeProp(nodes[3], "x") // exercise free list persistence

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != db.NumNodes() {
		t.Fatalf("nodes after load: %d vs %d", back.NumNodes(), db.NumNodes())
	}
	for _, n := range nodes {
		want, okW := db.NodeProp(n, "x")
		got, okG := back.NodeProp(n, "x")
		if okW != okG || (okW && want != got) {
			t.Fatalf("node %d prop x: %v/%v vs %v/%v", n, want, okW, got, okG)
		}
		if nm, _ := back.NodeProp(n, "name"); nm.S != fmt.Sprintf("node-%d", n) {
			t.Fatalf("node %d name=%q", n, nm.S)
		}
		// Adjacency preserved.
		var a, b int
		db.Rels(n, func(Rel) bool { a++; return true })
		back.Rels(n, func(Rel) bool { b++; return true })
		if a != b {
			t.Fatalf("node %d rel chain %d vs %d", n, a, b)
		}
	}
	if got := back.NodesByLabel("A"); len(got) != 10 {
		t.Fatalf("label index after load: %d", len(got))
	}
	// Free list survives: adding a property in the shard holding the freed
	// record reuses it (free lists are per shard).
	sh, _ := back.nodeShardOf(nodes[3])
	recs := len(sh.props.recs)
	if len(sh.props.free) != 1 {
		t.Fatalf("free list after load: %d records", len(sh.props.free))
	}
	back.SetNodeProp(nodes[3], "fresh", IntVal(1))
	if len(sh.props.recs) != recs || len(sh.props.free) != 0 {
		t.Fatal("free list lost on load")
	}
}

// chainLen is the length of a node's property chain.
func chainLen(db *DB, id NodeID) int {
	n := 0
	db.NodeProps(id, func(string, PropValue) bool { n++; return true })
	return n
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

// Property: set/get round trips for arbitrary keys and values on one node.
func TestQuickPropRoundTrip(t *testing.T) {
	db := New()
	n := db.CreateNode("N")
	f := func(keys []string, vals []int64) bool {
		want := map[string]int64{}
		for i, k := range keys {
			if i >= len(vals) {
				break
			}
			db.SetNodeProp(n, k, IntVal(vals[i]))
			want[k] = vals[i]
		}
		for k, v := range want {
			got, ok := db.NodeProp(n, k)
			if !ok || got.I != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
