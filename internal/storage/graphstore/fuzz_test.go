package graphstore

import (
	"bytes"
	"testing"
)

// FuzzWALReplay asserts ReplayWithSummary never panics on arbitrary bytes: whatever a
// half-written disk or a hostile file hands us, recovery either applies
// intact records or reports an error. Run the fuzzer with:
//
//	go test ./internal/storage/graphstore -fuzz FuzzWALReplay -fuzztime 30s
//
// In normal test runs only the seed corpus executes.
func FuzzWALReplay(f *testing.F) {
	// Seed with a valid log of every opcode...
	valid := everyOpcodeLog(f)
	f.Add(valid)
	// ...its truncations and single-byte corruptions...
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	if len(valid) > 8 {
		mut := append([]byte(nil), valid...)
		mut[8] ^= 0xff
		f.Add(mut)
	}
	// ...and degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{0xEE})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add(bytes.Repeat([]byte{0x01}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		db := New()
		sum, err := ReplayWithSummary(db, bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever replayed must leave a self-consistent store: counting
		// APIs and the label index must not panic or disagree wildly.
		if sum.Applied < 0 || db.NumNodes() > sum.Applied {
			t.Fatalf("applied=%d nodes=%d", sum.Applied, db.NumNodes())
		}
		for _, label := range []string{"A", "B", "C"} {
			for _, id := range db.NodesByLabel(label) {
				db.NodeProps(id, func(string, PropValue) bool { return true })
			}
		}
		// Replay is deterministic.
		db2 := New()
		sum2, err2 := ReplayWithSummary(db2, bytes.NewReader(data))
		if err2 != nil || sum2.Applied != sum.Applied || db2.NumNodes() != db.NumNodes() {
			t.Fatalf("non-deterministic replay: %v %d/%d", err2, sum2.Applied, sum.Applied)
		}
	})
}
