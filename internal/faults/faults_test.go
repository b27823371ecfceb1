package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestUnarmedCheckIsNil(t *testing.T) {
	Reset()
	if err := Check("nope"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	if Hits("nope") != 0 {
		t.Fatal("hits counted with empty registry")
	}
}

func TestErrorOnNth(t *testing.T) {
	Reset()
	defer Reset()
	Enable("p", Spec{Nth: 3})
	for i := 1; i <= 2; i++ {
		if err := Check("p"); err != nil {
			t.Fatalf("fired on visit %d", i)
		}
	}
	if err := Check("p"); err == nil {
		t.Fatal("did not fire on 3rd visit")
	}
	// Count=0: keeps firing (store stays down).
	if err := Check("p"); err == nil {
		t.Fatal("stopped firing after Nth")
	}
	if Hits("p") != 4 {
		t.Fatalf("hits=%d", Hits("p"))
	}
}

func TestBoundedCountAndTransient(t *testing.T) {
	Reset()
	defer Reset()
	cause := errors.New("boom")
	Enable("q", Spec{Err: cause, Transient: true, Count: 2})
	for i := 0; i < 2; i++ {
		err := Check("q")
		if err == nil {
			t.Fatalf("visit %d did not fire", i)
		}
		if !IsTransient(err) || !errors.Is(err, cause) {
			t.Fatalf("error chain wrong: %v", err)
		}
	}
	if err := Check("q"); err != nil {
		t.Fatal("fired beyond Count")
	}
}

func TestProbabilisticDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	run := func() []bool {
		Enable("r", Spec{P: 0.5, Seed: 42})
		out := make([]bool, 20)
		for i := range out {
			out[i] = Check("r") != nil
		}
		return out
	}
	a, b := run(), run()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("probabilistic sequence not deterministic under same seed")
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times", fired, len(a))
	}
}

func TestBaseSeedReproducible(t *testing.T) {
	Reset()
	defer Reset()
	defer Seed(1)
	// Points without an explicit Spec.Seed derive their schedule from the
	// package base seed: same base seed → identical fire pattern.
	run := func(seed int64) []bool {
		Seed(seed)
		Enable("derived", Spec{P: 0.5})
		out := make([]bool, 40)
		for i := range out {
			out[i] = Check("derived") != nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same base seed produced different fault schedules")
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing the base seed did not change the schedule")
	}
}

func TestDistinctPointsDistinctSequences(t *testing.T) {
	Reset()
	defer Reset()
	// Two seedless points armed under the same base seed must not share a
	// sequence (the point name is mixed into the derived seed).
	Enable("left", Spec{P: 0.5})
	Enable("right", Spec{P: 0.5})
	same := true
	for i := 0; i < 40; i++ {
		if (Check("left") != nil) != (Check("right") != nil) {
			same = false
		}
	}
	if same {
		t.Fatal("distinct points produced identical schedules")
	}
}

func TestExplicitSeedOverridesNameAndBase(t *testing.T) {
	Reset()
	defer Reset()
	defer Seed(1)
	// An explicit Spec.Seed is the point's whole seed: neither the point
	// name nor the base seed is mixed in.
	run := func(name string, base int64) []bool {
		Seed(base)
		Enable(name, Spec{P: 0.5, Seed: 99})
		out := make([]bool, 40)
		for i := range out {
			out[i] = Check(name) != nil
		}
		return out
	}
	a, b := run("left", 7), run("right", 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("one explicit seed gave two fault schedules")
		}
	}
}

func TestProbabilisticConcurrent(t *testing.T) {
	Reset()
	defer Reset()
	// The per-point rng is only drawn under the registry lock; this exercises
	// that guarantee under -race and checks the visit count stays exact.
	Enable("par", Spec{P: 0.5, Seed: 7})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Check("par")
			}
		}()
	}
	wg.Wait()
	if got := Hits("par"); got != workers*per {
		t.Fatalf("hits=%d, want %d", got, workers*per)
	}
}

func TestLatencyInjection(t *testing.T) {
	Reset()
	defer Reset()
	Enable("slow", Spec{Delay: 5 * time.Millisecond, Nth: 1000000})
	t0 := time.Now()
	if err := Check("slow"); err != nil {
		t.Fatal("latency-only point returned an error")
	}
	if d := time.Since(t0); d < 4*time.Millisecond {
		t.Fatalf("no latency injected (%v)", d)
	}
}

func TestDisableAndActive(t *testing.T) {
	Reset()
	defer Reset()
	Enable("a", Spec{})
	Enable("b", Spec{})
	if err := Check("a"); err == nil {
		t.Fatal("armed point silent")
	}
	Disable("a")
	if err := Check("a"); err != nil {
		t.Fatal("disabled point fired")
	}
	if err := Check("b"); err == nil {
		t.Fatal("armed point silent")
	}
	Reset()
	if Check("b") != nil || Hits("b") != 0 {
		t.Fatal("reset incomplete")
	}
}
