package ttdb

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/ts"
)

// Parallel execution is an optimization, not a semantics change: at every
// worker count, Q4–Q8 must return results deep-equal to the sequential
// ones on both engines.
func TestParallelMatchesSequential(t *testing.T) {
	for _, mk := range []func() Engine{
		func() Engine { return NewAllInGraph() },
		func() Engine { return NewPolyglot(ts.Day) },
	} {
		e := mk()
		sts := loadWorkload(t, e)
		start, end := 2*ts.Day, 9*ts.Day
		queries := []Query{
			Q4(start, end), Q5(start, end), Q6(start, end, 3),
			Q7(sts[0], sts[5], start, end, ts.Hour), Q8(sts[0], start, end),
		}
		e.SetWorkers(1)
		seq := map[Op]Result{}
		for _, q := range queries {
			seq[q.Op] = exec(t, e, q)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			e.SetWorkers(workers)
			for _, q := range queries {
				if got := exec(t, e, q); !reflect.DeepEqual(got, seq[q.Op]) {
					t.Fatalf("%s %s workers=%d: %v != sequential %v",
						e.Name(), q.Op, workers, got, seq[q.Op])
				}
			}
		}
	}
}

// parallelFor must visit every index exactly once at any width.
func TestParallelForCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 100} {
		for _, n := range []int{0, 1, 2, 5, 97} {
			visits := make([]int, n)
			var mu sync.Mutex
			if err := parallelFor(context.Background(), workers, n, nil, func(i int) {
				mu.Lock()
				visits[i]++
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// Concurrent clients firing the whole Q1–Q8 mix against one engine must be
// race-free (meaningful under -race) and return stable answers.
func TestConcurrentMixedQueries(t *testing.T) {
	pg := NewPolyglot(ts.Day)
	sts := loadWorkload(t, pg)
	pg.SetWorkers(4)
	start, end := 2*ts.Day, 9*ts.Day
	ctx := context.Background()
	wantQ3 := exec(t, pg, Q3(sts[2], start, end)).Scalar
	wantQ5 := exec(t, pg, Q5(start, end))

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				st := sts[(c+i)%len(sts)]
				for _, q := range []Query{
					Q1(st, start, end), Q2(st, start, end, 9.5), Q3(sts[2], start, end), Q4(start, end),
					Q5(start, end), Q6(start, end, 3), Q7(st, sts[(c+i+4)%len(sts)], start, end, ts.Hour),
					Q8(st, start, end),
				} {
					got, err := pg.Exec(ctx, q)
					switch {
					case err != nil:
						errc <- err
						return
					case q.Op == OpQ3 && got.Scalar != wantQ3:
						errc <- errors.New("Q3 unstable under concurrency")
						return
					case q.Op == OpQ5 && !reflect.DeepEqual(got, wantQ5):
						errc <- errors.New("Q5 unstable under concurrency")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// Concurrent readers must coexist with writers on both engines without
// racing: half the goroutines run the fan-out queries while the other half
// keep ingesting new stations and points.
func TestConcurrentReadersAndWriters(t *testing.T) {
	pg := NewPolyglot(ts.Day)
	loadWorkload(t, pg)
	pg.SetWorkers(4)
	start, end := 2*ts.Day, 9*ts.Day

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, q := range []Query{Q4(start, end), Q5(start, end), Q6(start, end, 3)} {
					if _, err := pg.Exec(context.Background(), q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s := ts.New(Metric)
				for h := 0; h < 48; h++ {
					s.MustAppend(ts.Time(h)*ts.Hour, float64(c*100+i))
				}
				if _, err := pg.IngestStation("w", "west", s); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := len(exec(t, pg, Q4(start, end)).IDs); got != 9+2*5 {
		t.Fatalf("stations after concurrent ingest: %d", got)
	}
}

// The PR 1 fault points must keep firing on the parallel read path: a
// degraded TS backend fails Q4–Q8 on the durable engine no matter how many
// workers fan the query out.
func TestDurableDegradationFiresWithWorkers(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var g, l bytes.Buffer
	d := NewDurable(ts.Day, &g, &l)
	st, err := d.IngestStation(1, "a", "north", sampleDurableSeries(48))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.IngestStation(1, "b", "south", sampleDurableSeries(48)); err != nil {
		t.Fatal(err)
	}
	d.SetWorkers(8)
	faults.Enable(FaultQueryTS, faults.Spec{Err: errors.New("ts backend down")})
	ctx := context.Background()
	if _, err := d.Exec(ctx, Q4(0, 48*ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("parallel Q4 on degraded backend: %v", err)
	}
	if _, err := d.Exec(ctx, Q5(0, 48*ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("parallel Q5 on degraded backend: %v", err)
	}
	if _, err := d.Exec(ctx, Q8(st, 0, 48*ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("parallel Q8 on degraded backend: %v", err)
	}
	faults.Reset()
	if _, err := d.Exec(ctx, Q4(0, 48*ts.Hour)); err != nil {
		t.Fatalf("Q4 after fault cleared: %v", err)
	}
}

func sampleDurableSeries(n int) *ts.Series {
	s := ts.New(Metric)
	for h := 0; h < n; h++ {
		s.MustAppend(ts.Time(h)*ts.Hour, float64(10+h%24))
	}
	return s
}
