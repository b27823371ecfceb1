package ttdb

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/ts"
)

// Race-detector hammer for the durable streaming path: concurrent
// AppendPoint writers spread over striped stores ride shared group commits
// while query clients fold across every stripe. After quiescing, recovery
// from the flushed logs alone must surface every acknowledged append —
// group commit coalesces physical flushes but must never acknowledge a
// record that is not durable.
func TestGroupCommitIngestQueryHammer(t *testing.T) {
	const (
		writers   = 4
		queriers  = 3
		perWriter = 150
	)
	var dk disk
	eng := &Polyglot{G: graphstore.NewSharded(8), T: tsstore.NewSharded(ts.Day, 8)}
	d := ResumeDurable(eng, &dk.graphLog, &dk.tsLog)
	d.Retry = RetryPolicy{MaxAttempts: 3}

	var ids []StationID
	for i := 0; i < 8; i++ {
		id, err := d.IngestStation(uint64(i), "st", "d", stationSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	base := ts.Time(48) * ts.Hour // past every preloaded point

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := w*perWriter + i
				st := ids[seq%len(ids)]
				if err := d.AppendPoint(st, base+ts.Time(seq+1)*ts.Minute, float64(seq)); err != nil {
					t.Errorf("append %d: %v", seq, err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				st := ids[(q+i)%len(ids)]
				if _, err := d.Exec(context.Background(), Q3(st, 0, base)); err != nil {
					t.Errorf("q3: %v", err)
					return
				}
				if _, err := d.Exec(context.Background(), Q4(0, base+ts.Time(writers*perWriter)*ts.Minute)); err != nil {
					t.Errorf("q4: %v", err)
					return
				}
				if _, err := d.Exec(context.Background(), Q8(st, 0, base)); err != nil {
					t.Errorf("q8: %v", err)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Crash now: recovery sees only the flushed buffers. Every acknowledged
	// append must be there.
	rec, _, err := RecoverPolyglot(nil, bytes.NewReader(dk.graphLog.Bytes()),
		nil, bytes.NewReader(dk.tsLog.Bytes()), ts.Day, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	perStation := make(map[StationID]int)
	for seq := 0; seq < writers*perWriter; seq++ {
		perStation[ids[seq%len(ids)]]++
	}
	for st, want := range perStation {
		pts := exec(t, rec, Q1(st, base+ts.Minute, base+ts.Time(writers*perWriter+1)*ts.Minute)).Points
		if len(pts) != want {
			t.Fatalf("station %d: recovered %d appended points, want %d", st, len(pts), want)
		}
	}
}
