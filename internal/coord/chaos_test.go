package coord_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hygraph/internal/coord"
	"hygraph/internal/faults"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// chaosParts is the partition count of chaosWorld's coordinator.
const chaosParts = 3

// chaosWorld builds a chaosParts-partition coordinator with a deterministic
// workload and returns it with the per-logical-station gids.
func chaosWorld(t *testing.T) (*coord.Coordinator, []ttdb.StationID) {
	t.Helper()
	c, err := coord.NewMem(chaosParts, ts.Week)
	if err != nil {
		t.Fatal(err)
	}
	var gids []ttdb.StationID
	for i := 0; i < 12; i++ {
		gid, err := c.IngestStation(fmt.Sprintf("st-%03d", i), fmt.Sprintf("d-%d", i%3), propSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
	}
	for i := 0; i < len(gids); i++ {
		if err := c.AddTrip(gids[i], gids[(i+1)%len(gids)], 2+i); err != nil {
			t.Fatal(err)
		}
	}
	return c, gids
}

// partOwning returns a partition index that owns at least one of the gids,
// along with one gid it owns, using the fact that arming its fault point
// degrades exactly that station's Q3.
func partOwning(t *testing.T, c *coord.Coordinator, gids []ttdb.StationID) (int, ttdb.StationID) {
	t.Helper()
	defer faults.Reset()
	for p := 0; p < chaosParts; p++ {
		faults.Enable(coord.FaultPartition(p), faults.Spec{Err: errors.New("probe")})
		for _, gid := range gids {
			if _, err := c.Exec(context.Background(), ttdb.Q3(gid, 0, propSpan)); err != nil {
				faults.Reset()
				return p, gid
			}
		}
		faults.Reset()
	}
	t.Fatal("no partition owns any station")
	return 0, 0
}

// TestPartitionFaultYieldsTypedPartial proves the degraded contract: a
// faulted partition turns every scatter into a typed PartialError — never a
// hang or a panic — with exact accounting of who answered, zero-filled
// shares for the lost partition, and untouched answers everywhere else.
func TestPartitionFaultYieldsTypedPartial(t *testing.T) {
	defer faults.Reset()
	c, gids := chaosWorld(t)
	start, end := propSpan/4, 3*propSpan/4
	ctx := context.Background()

	healthy, err := c.Exec(ctx, ttdb.Q4(start, end))
	if err != nil {
		t.Fatalf("healthy Q4: %v", err)
	}
	healthyQ4 := healthy.ByStation

	pf, victim := partOwning(t, c, gids)
	cause := errors.New("partition network cable pulled")
	faults.Enable(coord.FaultPartition(pf), faults.Spec{Err: cause})

	faulted, err := c.Exec(ctx, ttdb.Q4(start, end))
	if err == nil {
		t.Fatal("faulted Q4 returned no error")
	}
	got := faulted.ByStation
	if !errors.Is(err, ttdb.ErrDegraded) {
		t.Fatalf("faulted Q4 error is not ErrDegraded: %v", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("faulted Q4 error does not carry the cause: %v", err)
	}
	var perr *coord.PartialError
	if !errors.As(err, &perr) {
		t.Fatalf("faulted Q4 error is not a *PartialError: %T", err)
	}
	if perr.Query != "Q4" {
		t.Fatalf("partial names query %q, want Q4", perr.Query)
	}
	if _, ok := perr.Failed[pf]; !ok || len(perr.Failed) != 1 {
		t.Fatalf("Failed = %v, want exactly partition %d", perr.Failed, pf)
	}
	wantAnswered := 0
	for _, p := range perr.Answered {
		if p == pf {
			t.Fatalf("faulted partition %d listed as answered", pf)
		}
		wantAnswered++
	}
	if wantAnswered != chaosParts-1 {
		t.Fatalf("answered %v, want the %d healthy partitions", perr.Answered, chaosParts-1)
	}
	// Every station still enumerated; lost shares zero, healthy shares exact.
	if len(got) != len(healthyQ4) {
		t.Fatalf("degraded Q4 has %d stations, want %d", len(got), len(healthyQ4))
	}
	if got[victim] != 0 {
		t.Fatalf("victim station mean = %v, want 0", got[victim])
	}
	for gid, v := range got {
		if v != 0 && v != healthyQ4[gid] {
			t.Fatalf("healthy station %d changed under partial: %v vs %v", gid, v, healthyQ4[gid])
		}
	}

	// Q5 and Q6 degrade the same way (typed, accounted, no hang).
	if _, err := c.Exec(ctx, ttdb.Q5(start, end)); !errors.Is(err, ttdb.ErrDegraded) {
		t.Fatalf("faulted Q5: %v", err)
	}
	if _, err := c.Exec(ctx, ttdb.Q6(start, end, 5)); !errors.Is(err, ttdb.ErrDegraded) {
		t.Fatalf("faulted Q6: %v", err)
	}

	// Routed queries: the victim's owner degrades, other owners answer clean.
	if _, err := c.Exec(ctx, ttdb.Q3(victim, start, end)); !errors.Is(err, ttdb.ErrDegraded) {
		t.Fatalf("Q3 on victim's owner: %v", err)
	}
	cleanSeen := false
	for _, gid := range gids {
		if _, err := c.Exec(ctx, ttdb.Q3(gid, start, end)); err == nil {
			cleanSeen = true
			break
		}
	}
	if !cleanSeen {
		t.Fatal("no station answered cleanly with one partition down")
	}

	// Q8 with the home partition down: neighbor set survives with zero means.
	q8, err := c.Exec(ctx, ttdb.Q8(victim, start, end))
	if !errors.Is(err, ttdb.ErrDegraded) {
		t.Fatalf("Q8 on victim: %v", err)
	}
	ns := q8.ByStation
	if len(ns) == 0 {
		t.Fatal("Q8 partial lost the neighbor set")
	}
	for gid, v := range ns {
		if v != 0 {
			t.Fatalf("Q8 partial neighbor %d has non-zero mean %v", gid, v)
		}
	}

	// A done context wins over the partial.
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Exec(done, ttdb.Q4(start, end)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Q4 = %v, want context.Canceled", err)
	}

	// Disarm: answers heal completely.
	faults.Reset()
	healedQ4, err := c.Exec(ctx, ttdb.Q4(start, end))
	if err != nil {
		t.Fatalf("healed Q4: %v", err)
	}
	healed := healedQ4.ByStation
	for gid, v := range healthyQ4 {
		if healed[gid] != v {
			t.Fatalf("healed Q4[%d] = %v, want %v", gid, healed[gid], v)
		}
	}
}

// TestChaosConcurrent hammers the coordinator with concurrent queries,
// ingest and fault flips for three iterations — the race battery (-race in
// `make verify`) proves the fan-out is clean; here we prove no panic, no
// hang, and that every error is either a typed partial or a context error.
func TestChaosConcurrent(t *testing.T) {
	defer faults.Reset()
	for iter := 0; iter < 3; iter++ {
		c, gids := chaosWorld(t)
		start, end := propSpan/4, 3*propSpan/4
		stop := make(chan struct{})
		var wg sync.WaitGroup

		checkErr := func(err error) {
			if err == nil {
				return
			}
			if errors.Is(err, ttdb.ErrDegraded) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return
			}
			panic(fmt.Sprintf("unexpected error class: %v", err))
		}

		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					gid := gids[(w+i)%len(gids)]
					switch i % 5 {
					case 0:
						_, err := c.Exec(ctx, ttdb.Q4(start, end))
						checkErr(err)
					case 1:
						_, err := c.Exec(ctx, ttdb.Q5(start, end))
						checkErr(err)
					case 2:
						_, err := c.Exec(ctx, ttdb.Q6(start, end, 5))
						checkErr(err)
					case 3:
						_, err := c.Exec(ctx, ttdb.Q8(gid, start, end))
						checkErr(err)
					default:
						_, err := c.Exec(ctx, ttdb.Q7(gid, gids[(w+i+3)%len(gids)], start, end, ts.Hour))
						checkErr(err)
					}
					cancel()
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gid, err := c.IngestStation(fmt.Sprintf("chaos-%d-%d", iter, i), "d-9", propSeries(i))
				if err != nil {
					panic(err)
				}
				if err := c.AddTrip(gid, gids[i%len(gids)], 1); err != nil {
					panic(err)
				}
				if err := c.AppendPoint(gid, ts.Time(i)*ts.Hour, float64(i)); err != nil {
					panic(err)
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := i % 3
				faults.Enable(coord.FaultPartition(p), faults.Spec{Err: errors.New("flap")})
				time.Sleep(2 * time.Millisecond)
				faults.Disable(coord.FaultPartition(p))
				time.Sleep(time.Millisecond)
			}
		}()

		time.Sleep(60 * time.Millisecond)
		close(stop)
		wg.Wait()
		faults.Reset()

		// The survivors still answer exactly once the chaos stops.
		if _, err := c.Exec(context.Background(), ttdb.Q4(start, end)); err != nil {
			t.Fatalf("iteration %d: post-chaos Q4: %v", iter, err)
		}
	}
}
