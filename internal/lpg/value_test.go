package lpg

import (
	"testing"

	"hygraph/internal/ts"
)

func TestValueKindsAndAccessors(t *testing.T) {
	multi, err := ts.NewMulti("m", "a")
	if err != nil {
		t.Fatal(err)
	}
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
		{MultiVal(multi), KindMulti},
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

// TestValueEqual: Values are comparable with ==; scalars are equal by kind
// and payload, series references by handle identity (TestSeriesRef).
func TestValueEqual(t *testing.T) {
	if Int(1) != Int(1) || Int(1) == Int(2) {
		t.Fatal("int equality")
	}
	if Int(1) == Float(1) {
		t.Fatal("cross-kind equality must be false")
	}
	if Null != (Value{}) {
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
	if va != SeriesRef(a) || va == vb {
		t.Fatal("references are equal by handle identity")
	}
	if va.Compare(vb) != 0 || Str("x").Compare(va) >= 0 || SeriesVal(ts.New("s")).Compare(va) >= 0 {
		t.Fatal("references tie with each other and order after every inline value")
	}
	if va.String() != "&{a}" {
		t.Fatalf("String = %q", va.String())
	}
}
