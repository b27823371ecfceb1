package main

import (
	"fmt"
	"os"
	"time"

	"hygraph/benchmark/mark"
)

// served is a loaded child: the server process, a wire to it, and the oracle
// that knows what was loaded.
type served struct {
	c  *child
	w  *wire
	or *oracle
}

// setUp starts a child on an empty dir, bulk-loads the dataset through the
// ingest API and verifies the station count. Stations are posted one after
// another so that server ids ascend with dataset index — Q6 breaks ties by id
// and the model by index — while a second goroutine encodes the next body.
func setUp(bin, dir string, ds *mark.Dataset, partitions, conns int) (*served, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := startChild(bin, dir, partitions)
	if err != nil {
		return nil, err
	}
	w := newWire(c.base, conns)
	ids, err := load(w, ds)
	if err != nil {
		c.kill()
		return nil, err
	}
	return &served{c: c, w: w, or: newOracle(mark.NewModel(ds), ids)}, nil
}

func load(w *wire, ds *mark.Dataset) ([]uint32, error) {
	bodies := make(chan []byte, 1)
	go func() {
		for i := range ds.Stations {
			bodies <- mark.StationBody(&ds.Stations[i])
		}
		close(bodies)
	}()
	var ids []uint32
	var firstErr error
	for body := range bodies { // drained even after an error, so the encoder exits
		if firstErr != nil {
			continue
		}
		id, err := w.ingestStation(body)
		if err != nil {
			firstErr = fmt.Errorf("loading station %d: %w", len(ids), err)
		}
		ids = append(ids, id)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for _, t := range ds.Trips {
		if err := w.addTrip(ids[t.From], ids[t.To], t.Count); err != nil {
			return nil, fmt.Errorf("loading trip %d-%d: %w", t.From, t.To, err)
		}
	}
	if n, err := w.stationCount(); err != nil || n != len(ds.Stations) {
		return nil, fmt.Errorf("after load the server reports %d stations, want %d (err %v)", n, len(ds.Stations), err)
	}
	return ids, nil
}

// tearDown drains the child and deletes its directory.
func (s *served) tearDown(dir string) error {
	s.w.close()
	err := s.c.stop()
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	return err
}

// timedSetUps sets up `reps` times on fresh directories and returns the last
// child, kept running for the measurement, with every set-up time. Set-up is
// repeated because a single bulk load is the noisiest number of a run.
func timedSetUps(bin, dir string, ds *mark.Dataset, partitions, conns, reps int) (*served, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := setUp(bin, dir, ds, partitions, conns)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return s, times, nil
		}
		s.w.close()
		s.c.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}
