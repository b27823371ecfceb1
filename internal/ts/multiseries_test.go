package ts

import (
	"testing"
)

// mustMulti is NewMulti that panics on error.
func mustMulti(name string, vars ...string) *MultiSeries {
	m, err := NewMulti(name, vars...)
	if err != nil {
		panic(err)
	}
	return m
}

// tuple returns the i-th observation tuple in variable order.
func (m *MultiSeries) tuple(i int) []float64 {
	out := make([]float64, len(m.cols))
	for c := range m.cols {
		out[c] = m.cols[c][i]
	}
	return out
}

// MustAppend is Append that panics on error.
func (m *MultiSeries) MustAppend(t Time, tuple ...float64) {
	if err := m.Append(t, tuple...); err != nil {
		panic(err)
	}
}

func TestMultiSeriesBasics(t *testing.T) {
	m := mustMulti("cc", "amount", "balance")
	if m.Arity() != 2 || m.Len() != 0 {
		t.Fatalf("fresh multiseries: k=%d n=%d", m.Arity(), m.Len())
	}
	m.MustAppend(10, 100, 900)
	m.MustAppend(20, 50, 850)
	if m.Len() != 2 {
		t.Fatalf("len=%d", m.Len())
	}
	tup := m.tuple(1)
	if tup[0] != 50 || tup[1] != 850 {
		t.Fatalf("tuple=%v", tup)
	}
	if m.Start() != 10 || m.End() != 20 {
		t.Fatalf("range %v..%v", m.Start(), m.End())
	}
}

func TestMultiSeriesErrors(t *testing.T) {
	if _, err := NewMulti("dup", "x", "x"); err == nil {
		t.Fatal("duplicate variable accepted")
	}
	m := mustMulti("m", "x", "y")
	if err := m.Append(10, 1); err != ErrArity {
		t.Fatalf("arity: %v", err)
	}
	m.MustAppend(10, 1, 2)
	if err := m.Append(10, 3, 4); err != ErrOutOfOrder {
		t.Fatalf("order: %v", err)
	}
}

func TestMultiSeriesVarExtraction(t *testing.T) {
	m := mustMulti("cc", "amount", "balance")
	m.MustAppend(10, 100, 900)
	m.MustAppend(20, 50, 850)
	b := m.MustVar("balance")
	if b.Name() != "cc.balance" {
		t.Fatalf("var name=%q", b.Name())
	}
	if b.Len() != 2 || b.ValueAt(0) != 900 || b.ValueAt(1) != 850 {
		t.Fatalf("var values: %v", b.Points())
	}
	if _, ok := m.Var("nope"); ok {
		t.Fatal("missing variable found")
	}
	// Extraction copies: mutating the extraction must not touch the parent.
	b.vals[0] = -1
	if m.tuple(0)[1] == -1 {
		t.Fatal("Var aliases parent")
	}
}

func TestCombine(t *testing.T) {
	a := FromSamples("a", 0, 10, []float64{1, 2, 3})
	b := FromSamples("b", 0, 10, []float64{4, 5, 6})
	m, err := Combine("ab", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Arity() != 2 || m.Len() != 3 {
		t.Fatalf("combined k=%d n=%d", m.Arity(), m.Len())
	}
	if got := m.MustVar("b"); got.ValueAt(2) != 6 {
		t.Fatalf("combined var: %v", got.Points())
	}
	// Mismatched lengths.
	if _, err := Combine("x", a, FromSamples("c", 0, 10, []float64{1})); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Mismatched timestamps.
	if _, err := Combine("x", a, FromSamples("c", 5, 10, []float64{1, 2, 3})); err == nil {
		t.Fatal("timestamp mismatch accepted")
	}
	// Empty combine.
	e, err := Combine("empty")
	if err != nil || e.Arity() != 0 {
		t.Fatalf("empty combine: %v %v", e, err)
	}
}

func TestMultiSeriesUpsert(t *testing.T) {
	m := mustMulti("m", "x", "y")
	m.MustAppend(10, 1, 2)
	m.MustAppend(30, 3, 4)
	// Insert in the middle.
	if err := m.Upsert(20, 9, 8); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 || m.times[1] != 20 {
		t.Fatalf("after insert: n=%d times=%v", m.Len(), m.times[1])
	}
	tup := m.tuple(1)
	if tup[0] != 9 || tup[1] != 8 {
		t.Fatalf("inserted tuple=%v", tup)
	}
	// Replace an existing timestamp.
	if err := m.Upsert(10, -1, -2); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("replace changed length to %d", m.Len())
	}
	if got := m.tuple(0); got[0] != -1 || got[1] != -2 {
		t.Fatalf("replaced tuple=%v", got)
	}
	// Arity checked.
	if err := m.Upsert(40, 1); err != ErrArity {
		t.Fatalf("arity: %v", err)
	}
	// Timestamps stay sorted after many upserts.
	for _, tt := range []Time{5, 35, 15, 25} {
		if err := m.Upsert(tt, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < m.Len(); i++ {
		if m.times[i] <= m.times[i-1] {
			t.Fatal("times not strictly increasing")
		}
	}
}
