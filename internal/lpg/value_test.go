package lpg

import (
	"testing"

	"hygraph/internal/ts"
)

func TestValueKindsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Bool(true), KindBool},
		{Int(42), KindInt},
		{Float(2.5), KindFloat},
		{Str("x"), KindString},
		{TimeVal(100), KindTime},
		{SeriesVal(ts.New("s")), KindSeries},
		{MultiVal(ts.MustNewMulti("m", "a")), KindMulti},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v kind=%v want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if v, ok := Int(7).AsInt(); !ok || v != 7 {
		t.Error("AsInt")
	}
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Error("AsFloat of int should widen")
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("AsFloat of string")
	}
	if tt, ok := TimeVal(5).AsTime(); !ok || tt != 5 {
		t.Error("AsTime")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(1).Equal(Int(1)) || Int(1).Equal(Int(2)) {
		t.Fatal("int equality")
	}
	if Int(1).Equal(Float(1)) {
		t.Fatal("cross-kind equality must be false")
	}
	s1 := ts.FromSamples("s", 0, 1, []float64{1, 2})
	s2 := ts.FromSamples("s", 0, 1, []float64{1, 2})
	if !SeriesVal(s1).Equal(SeriesVal(s2)) {
		t.Fatal("series content equality")
	}
	if !Null.Equal(Value{}) {
		t.Fatal("null equality")
	}
}

func TestValueCompare(t *testing.T) {
	// Numeric ordering across int and float.
	if Int(2).Compare(Float(2.5)) != -1 {
		t.Fatal("2 < 2.5")
	}
	if Float(3).Compare(Int(2)) != 1 {
		t.Fatal("3 > 2")
	}
	if Int(2).Compare(Int(2)) != 0 {
		t.Fatal("2 == 2")
	}
	if Str("a").Compare(Str("b")) != -1 {
		t.Fatal("string order")
	}
	// Kind ordering: null < bool < numeric < string.
	if Null.Compare(Int(0)) != -1 || Str("a").Compare(Int(5)) != 1 {
		t.Fatal("kind order")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Fatal("bool order")
	}
	if TimeVal(1).Compare(TimeVal(2)) != -1 {
		t.Fatal("time order")
	}
}

func TestValueString(t *testing.T) {
	if Int(5).String() != "5" || Str("hi").String() != "hi" ||
		Bool(true).String() != "true" || Null.String() != "null" {
		t.Fatal("string renderings")
	}
	if Float(2.5).String() != "2.5" {
		t.Fatalf("float render %q", Float(2.5).String())
	}
}

func TestIndexKey(t *testing.T) {
	// Distinct values of the same kind must have distinct keys; equal values
	// must collide; series must be non-indexable.
	k1, ok1 := Int(1).indexKey()
	k2, ok2 := Int(2).indexKey()
	k1b, _ := Int(1).indexKey()
	if !ok1 || !ok2 || k1 == k2 || k1 != k1b {
		t.Fatal("int index keys")
	}
	// Int and string with the same rendering must not collide.
	ks, _ := Str("1").indexKey()
	if ks == k1 {
		t.Fatal("cross-kind index collision")
	}
	if _, ok := SeriesVal(ts.New("s")).indexKey(); ok {
		t.Fatal("series must not be indexable")
	}
}

// TestSeriesRef: a series held by reference is an N_TS value whose handle
// lpg stores and returns without looking inside.
func TestSeriesRef(t *testing.T) {
	type handle struct{ name string }
	a, b := &handle{"a"}, &handle{"b"}
	va, vb := SeriesRef(a), SeriesRef(b)
	if !va.IsSeries() || va.Kind() != KindSeriesRef || va.Kind().String() != "seriesref" {
		t.Fatalf("kind = %v", va.Kind())
	}
	if got, ok := va.AsSeriesRef(); !ok || got != any(a) {
		t.Fatalf("AsSeriesRef = %v, %v", got, ok)
	}
	if _, ok := SeriesVal(ts.New("s")).AsSeriesRef(); ok {
		t.Fatal("an inline series is not a reference")
	}
	if !va.Equal(SeriesRef(a)) || va.Equal(vb) {
		t.Fatal("references are equal by handle identity")
	}
	if va.Compare(vb) != 0 || Str("x").Compare(va) >= 0 || SeriesVal(ts.New("s")).Compare(va) >= 0 {
		t.Fatal("references tie with each other and order after every inline value")
	}
	if va.String() != "&{a}" {
		t.Fatalf("String = %q", va.String())
	}
	if _, ok := va.indexKey(); ok {
		t.Fatal("a series reference is not indexable")
	}
}
