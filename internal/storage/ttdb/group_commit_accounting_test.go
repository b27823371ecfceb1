package ttdb

import (
	"context"
	"sync"
	"testing"

	"hygraph/internal/obs"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/ts"
)

// Group commit coalesces physical flushes but never drops or duplicates a
// record: while ingest clients stream AppendPoint writes alongside query
// clients, the time-series WAL's counters over that phase must show exactly
// one append per acknowledged write, and between one and that many flushes.
func TestGroupCommitWALAccounting(t *testing.T) {
	const (
		writers   = 2
		queriers  = 2
		perWriter = 200
	)
	var dk disk
	d := ResumeDurable(&Polyglot{G: graphstore.NewSharded(4), T: tsstore.NewSharded(ts.Day, 4)}, &dk.graphLog, &dk.tsLog)
	reg := obs.New()
	d.Instrument(reg)

	var ids []StationID
	for i := 0; i < 4; i++ {
		id, err := d.IngestStation(uint64(i), "st", "d", stationSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	base := ts.Time(48) * ts.Hour // past every preloaded point
	pre := reg.Snapshot().Counters

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := w*perWriter + i
				if err := d.AppendPoint(ids[seq%len(ids)], base+ts.Time(seq+1)*ts.Minute, float64(seq)); err != nil {
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
			for i := 0; i < 40; i++ {
				if _, err := d.Exec(context.Background(), Q3(ids[(q+i)%len(ids)], 0, base)); err != nil {
					t.Errorf("q3: %v", err)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	post := reg.Snapshot().Counters
	appends := post["tsstore.wal.appends"] - pre["tsstore.wal.appends"]
	flushes := post["tsstore.wal.flushes"] - pre["tsstore.wal.flushes"]
	if appends != writers*perWriter {
		t.Fatalf("ts-wal appends %d, want one per acknowledged write (%d)", appends, writers*perWriter)
	}
	if flushes < 1 || flushes > appends {
		t.Fatalf("flush accounting: %d flushes for %d appends", flushes, appends)
	}
}
