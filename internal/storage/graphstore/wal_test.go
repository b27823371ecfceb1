package graphstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestWALReplayReconstructs(t *testing.T) {
	var log bytes.Buffer
	orig := New()
	wal := NewWAL(orig, &log)
	rng := rand.New(rand.NewSource(1))

	var nodes []NodeID
	for i := 0; i < 30; i++ {
		n := orig.AllocNodeID()
		if err := wal.CreateNodeAt(n, []string{"A", "B"}[i%2], "All"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if err := wal.SetNodeProp(n, "x", IntVal(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := wal.SetNodeProp(n, "name", StrVal(fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		r, err := wal.CreateRel(a, b, "T")
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.SetRelProp(r, "w", FloatVal(rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	// Mix in updates and bools.
	if err := wal.SetNodeProp(nodes[3], "x", IntVal(999)); err != nil {
		t.Fatal(err)
	}
	if err := wal.SetNodeProp(nodes[4], "flag", BoolVal(true)); err != nil {
		t.Fatal(err)
	}
	if err := wal.Flush(); err != nil {
		t.Fatal(err)
	}

	// Crash: rebuild a fresh store purely from the log.
	rebuilt := New()
	sum, err := ReplayWithSummary(rebuilt, bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Applied == 0 {
		t.Fatal("nothing replayed")
	}
	if rebuilt.NumNodes() != orig.NumNodes() {
		t.Fatalf("nodes: %d vs %d", rebuilt.NumNodes(), orig.NumNodes())
	}
	for _, n := range nodes {
		for _, key := range []string{"x", "name", "flag"} {
			want, okW := orig.NodeProp(n, key)
			got, okG := rebuilt.NodeProp(n, key)
			if okW != okG || (okW && want != got) {
				t.Fatalf("node %d %s: %v/%v vs %v/%v", n, key, want, okW, got, okG)
			}
		}
		var a, b int
		orig.Rels(n, func(Rel) bool { a++; return true })
		rebuilt.Rels(n, func(Rel) bool { b++; return true })
		if a != b {
			t.Fatalf("node %d chain %d vs %d", n, a, b)
		}
	}
	// Label index reconstructed.
	if len(rebuilt.NodesByLabel("A")) != len(orig.NodesByLabel("A")) {
		t.Fatal("label index mismatch after replay")
	}
}

// The acceptance property: a WAL truncated at EVERY byte offset of its last
// record must recover without error or panic, losing at most that record.
func TestWALTornTailAtEveryOffset(t *testing.T) {
	writeLog := func(withLast bool) []byte {
		var log bytes.Buffer
		wal := NewWAL(New(), &log)
		if err := wal.CreateNodeAt(0, "A"); err != nil {
			t.Fatal(err)
		}
		if err := wal.SetNodeProp(0, "k", StrVal("value")); err != nil {
			t.Fatal(err)
		}
		if withLast {
			if err := wal.SetNodeProp(0, "longer-key", StrVal("the final record of this log")); err != nil {
				t.Fatal(err)
			}
		}
		if err := wal.Flush(); err != nil {
			t.Fatal(err)
		}
		return log.Bytes()
	}
	full := writeLog(true)
	prefix := writeLog(false)
	for cut := len(prefix); cut < len(full); cut++ {
		rebuilt := New()
		sum, err := ReplayWithSummary(rebuilt, bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if sum.Applied != 2 || rebuilt.NumNodes() != 1 {
			t.Fatalf("cut %d: applied=%d nodes=%d", cut, sum.Applied, rebuilt.NumNodes())
		}
		if cut > len(prefix) && !sum.TornTail {
			t.Fatalf("cut %d: torn tail not reported: %+v", cut, sum)
		}
		if v, ok := rebuilt.NodeProp(0, "k"); !ok || v.S != "value" {
			t.Fatalf("cut %d: intact prefix lost", cut)
		}
	}
}

func TestWALMidLogCorruptionDetected(t *testing.T) {
	var log bytes.Buffer
	wal := NewWAL(New(), &log)
	wal.CreateNodeAt(0, "A")
	wal.SetNodeProp(0, "k", StrVal("value"))
	wal.Flush()
	raw := append([]byte(nil), log.Bytes()...)
	// Flip a bit inside the first record's payload: intact data follows, so
	// replay must stop with an error rather than apply garbage.
	raw[6] ^= 0x10
	rebuilt := New()
	if _, err := ReplayWithSummary(rebuilt, bytes.NewReader(raw)); err == nil {
		t.Fatal("mid-log corruption replayed cleanly")
	}
}

func TestWALCorruptTailDropped(t *testing.T) {
	var log bytes.Buffer
	wal := NewWAL(New(), &log)
	wal.CreateNodeAt(0, "A")
	wal.SetNodeProp(0, "k", StrVal("value"))
	wal.Flush()
	raw := append([]byte(nil), log.Bytes()...)
	raw[len(raw)-1] ^= 0x10 // bit rot on the final record
	rebuilt := New()
	sum, err := ReplayWithSummary(rebuilt, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("corrupt tail should truncate: %v", err)
	}
	if sum.Applied != 1 || !sum.CorruptTail || rebuilt.NumNodes() != 1 {
		t.Fatalf("sum=%+v nodes=%d", sum, rebuilt.NumNodes())
	}
}

func TestWALDeleteNodeRoundTrip(t *testing.T) {
	var log bytes.Buffer
	wal := NewWAL(New(), &log)
	a, b := NodeID(0), NodeID(1)
	wal.CreateNodeAt(a, "Station")
	wal.CreateNodeAt(b, "Station")
	if _, err := wal.CreateRel(a, b, "TRIP"); err != nil {
		t.Fatal(err)
	}
	if err := wal.DeleteNode(b); err != nil {
		t.Fatal(err)
	}
	if err := wal.Flush(); err != nil {
		t.Fatal(err)
	}
	rebuilt := New()
	if _, err := ReplayWithSummary(rebuilt, bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	rels := 0
	rebuilt.Rels(a, func(Rel) bool { rels++; return true })
	if rebuilt.NumNodes() != 1 || rels != 0 {
		t.Fatalf("nodes=%d rels=%d after replayed delete", rebuilt.NumNodes(), rels)
	}
	if got := len(rebuilt.NodesByLabel("Station")); got != 1 {
		t.Fatalf("label index has %d entries", got)
	}
}

func TestRecoverSnapshotPlusLog(t *testing.T) {
	// Build a base store, snapshot it, continue in a WAL, then recover.
	base := New()
	n := base.CreateNode("A")
	base.SetNodeProp(n, "x", IntVal(1))
	var snap bytes.Buffer
	if err := base.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	wal := NewWAL(base, &log)
	m := base.AllocNodeID()
	wal.CreateNodeAt(m, "B")
	wal.SetNodeProp(m, "y", IntVal(2))
	wal.Flush()

	rec, sum, err := Recover(bytes.NewReader(snap.Bytes()), bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Applied != 2 || rec.NumNodes() != 2 {
		t.Fatalf("applied=%d nodes=%d", sum.Applied, rec.NumNodes())
	}
	if v, ok := rec.NodeProp(m, "y"); !ok || v.I != 2 {
		t.Fatal("log half lost")
	}
	if v, ok := rec.NodeProp(n, "x"); !ok || v.I != 1 {
		t.Fatal("snapshot half lost")
	}
	// Recover with neither source yields an empty store.
	empty, sum2, err := Recover(nil, nil)
	if err != nil || empty.NumNodes() != 0 || sum2.Applied != 0 {
		t.Fatalf("empty recover: %v %+v", err, sum2)
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWALWriteErrorFailsFast(t *testing.T) {
	wal := NewWAL(New(), &errWriter{n: 4})
	// Writes buffer 4096 bytes, so force the failure through Flush.
	for i := 0; i < 2000; i++ {
		wal.CreateNodeAt(NodeID(i), "A")
	}
	if err := wal.Flush(); err == nil {
		t.Fatal("flush on failing writer succeeded")
	}
	if err := wal.SetNodeProp(0, "k", IntVal(1)); err == nil {
		t.Fatal("mutation after write error accepted")
	}
}

// everyOpcodeLog is a log holding one record of every opcode replay
// decodes, built payload by payload. The id-less creates and the property
// removal are what logs of earlier builds hold: no WAL verb writes them
// any more, and replay must keep applying them.
func everyOpcodeLog(tb testing.TB) []byte {
	tb.Helper()
	return logOf(tb,
		putString(putString(rec(opCreateNode, 2), "A"), "B"), // node 0
		putString(rec(opCreateNodeAt, 5, 1), "C"),            // node 5
		putString(rec(opCreateRel, 0, 5), "T"),               // rel 0
		putString(rec(opCreateRelAt, 3, 5, 0), "U"),          // rel 3
		putValue(putString(rec(opSetNodeProp, 0), "x"), IntVal(7)),
		putValue(putString(rec(opSetNodeProp, 0), "s"), StrVal("str")),
		putValue(putString(rec(opSetRelProp, 3), "w"), FloatVal(2.5)),
		putString(rec(opRemoveNodeProp, 0), "x"),
		putString(rec(opCreateNodeAt, 6, 1), "C"), // node 6
		putValue(putString(rec(opSetNodeProp, 6), "b"), BoolVal(true)),
		rec(opDeleteNode, 6),
	)
}

// rec builds a record payload: the opcode, then each id as a uvarint.
func rec(op byte, ids ...uint64) []byte {
	buf := []byte{op}
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

// logOf frames the record payloads as one flushed log.
func logOf(tb testing.TB, records ...[]byte) []byte {
	tb.Helper()
	var log bytes.Buffer
	wal := NewWAL(New(), &log)
	for _, r := range records {
		if err := wal.commit(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := wal.Flush(); err != nil {
		tb.Fatal(err)
	}
	return log.Bytes()
}

// A create record for an id that is already live fails replay, naming the
// id, instead of resetting the element and indexing it twice: that is what
// an old log replayed over a snapshot that already holds it looks like. A
// create of a deleted id is a legitimate reuse and replays.
func TestWALReplayRejectsLiveCreate(t *testing.T) {
	node5 := putString(rec(opCreateNodeAt, 5, 1), "C")
	rel3 := putString(rec(opCreateRelAt, 3, 5, 5), "T")
	for _, tc := range []struct {
		name    string
		log     []byte
		applied int
		want    string
	}{
		{"node twice", logOf(t, node5, node5), 1, "live node 5"},
		{"rel twice", logOf(t, node5, rel3, rel3), 2, "live relationship 3"},
	} {
		db := New()
		sum, err := ReplayWithSummary(db, bytes.NewReader(tc.log))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if sum.Applied != tc.applied {
			t.Fatalf("%s: applied %d records before the error, want %d", tc.name, sum.Applied, tc.applied)
		}
		if got := db.NodesByLabel("C"); len(got) != 1 || got[0] != 5 {
			t.Fatalf("%s: label index C = %v, want [5]", tc.name, got)
		}
	}

	db := New()
	if _, err := ReplayWithSummary(db, bytes.NewReader(logOf(t, node5, rec(opDeleteNode, 5), node5))); err != nil {
		t.Fatalf("re-create after delete: %v", err)
	}
	if got := db.NodesByLabel("C"); len(got) != 1 || got[0] != 5 {
		t.Fatalf("re-created node: label index C = %v, want [5]", got)
	}
}

// Every opcode's replay arm applies its record, the legacy ones included.
func TestWALReplaysEveryOpcode(t *testing.T) {
	db := New()
	sum, err := ReplayWithSummary(db, bytes.NewReader(everyOpcodeLog(t)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Applied != 11 {
		t.Fatalf("applied %d records, want 11", sum.Applied)
	}
	if got := db.NodesByLabel("B"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("id-less create: B = %v", got)
	}
	if got := db.NodesByLabel("C"); len(got) != 1 || got[0] != 5 {
		t.Fatalf("explicit-id create and delete: C = %v", got)
	}
	if db.NodeExists(6) || db.NumNodes() != 2 {
		t.Fatalf("deleted node 6 survives: %d nodes", db.NumNodes())
	}
	if _, ok := db.NodeProp(0, "x"); ok {
		t.Fatal("removed property survives")
	}
	if v, ok := db.NodeProp(0, "s"); !ok || v.S != "str" {
		t.Fatalf("s = %v %v", v, ok)
	}
	if v, ok := db.RelProp(3, "w"); !ok || v.F != 2.5 {
		t.Fatalf("w = %v %v", v, ok)
	}
	var rels []Rel
	db.Rels(0, func(r Rel) bool { rels = append(rels, r); return true })
	want := []Rel{{ID: 3, From: 5, To: 0, Type: "U"}, {ID: 0, From: 0, To: 5, Type: "T"}}
	if fmt.Sprint(rels) != fmt.Sprint(want) {
		t.Fatalf("rels of node 0 = %v, want %v", rels, want)
	}
	if id := db.AllocNodeID(); id != 7 {
		t.Fatalf("allocator after replay at %d, want 7", id)
	}
}
