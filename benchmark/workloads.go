package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hygraph/benchmark/mark"
)

// workload is one traffic mix. The names, and why each exists, are the
// contract recorded in BENCHMARK.json; README.md has the full table.
type workload struct {
	name       string
	stations   int
	days       int
	partitions int
	conns      int    // connections the load generator keeps, at most nproc
	checkEvery int    // the oracle checks every k-th read answer
	lead, base string // op classes behind lead_p50_ms and base_p50_ms
	drive      func(r *run) error
	ops        func(seed int64, stations, days int) mark.Gen // the read workloads' mix
}

// The datasets. The decoded-block and resample caches hold 1024 entries each:
// the read workloads' 200 stations x 52 week-chunks are ten times that, so
// the Zipf head fits and the tail does not; the small dataset fits whole.
// Sizes are fixed by the 3420 s the acceptance runs may take in total, which
// leaves one run about 35 s including three bulk loads. ingest_mixed's 179
// days end 72 hours short of a week-chunk boundary, so every station seals a
// chunk about 8.6 s into the run, inside the traced half of a 10 s window.
var workloads = []workload{
	{name: "read_point", stations: 300, days: 364, partitions: 1, conns: 2, checkEvery: 16,
		lead: "Q3", base: "Q1", drive: driveReads, ops: mark.NewReadPoint},
	{name: "read_scan", stations: 300, days: 364, partitions: 2, conns: 2, checkEvery: 8,
		lead: "Q4", base: "Q5", drive: driveReads, ops: mark.NewReadScan},
	{name: "ingest_mixed", stations: 120, days: 179, partitions: 2, conns: 2, checkEvery: 3,
		lead: "append", base: "downsample", drive: driveIngestMixed},
	{name: "hyql_live", stations: 100, days: 90, partitions: 1, conns: 1, checkEvery: 1,
		lead: "H1", base: "H1warm", drive: driveHyQLLive},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// writeRate is the offered append rate of ingest_mixed, per second. It is
// fixed so that reader throughput is comparable across commits, and low
// enough that one connection keeps up: each append must finish within 1/rate.
const writeRate = 1000

// sample is one finished request, timed from the run's origin. An open-loop
// request starts at its due time, not when it was sent.
type sample struct {
	op         mark.Op
	start, end time.Duration
	sent       time.Duration // when the request left; differs from start in an open loop
	checked    time.Duration // when the oracle finished with it; 0 if unchecked
	failed     bool
}

// clientLog is what one load-generator goroutine records; nothing is shared
// until the goroutines have finished.
type clientLog struct {
	samples  []sample
	firstErr error
}

func (l *clientLog) add(s sample, err error) {
	if err != nil {
		s.failed = true
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	l.samples = append(l.samples, s)
}

// run is one workload execution against one loaded child.
type run struct {
	wl     *workload
	s      *served
	seed   int64
	origin time.Time
	end    time.Duration // clients stop issuing at origin+end
	logs   []*clientLog
	loaded []int // samples per station after set-up
	// acked and issued count each station's samples for ingest_mixed's
	// racing reader; nil elsewhere.
	acked, issued []atomic.Int32
}

func (r *run) since() time.Duration { return time.Since(r.origin) }

// begin opens the sample of a request that is sent the moment it is created.
func (r *run) begin(op mark.Op) sample {
	now := r.since()
	return sample{op: op, start: now, sent: now}
}

// held snapshots how many samples each station holds by the given counters;
// without a writer that is what was loaded, and the slice is shared.
func (r *run) held(counters []atomic.Int32) []int {
	if counters == nil {
		return r.loaded
	}
	out := make([]int, len(counters))
	for st := range counters {
		out[st] = int(counters[st].Load())
	}
	return out
}

// driveReads is the closed loop of read_point and read_scan: each client
// sends its next op when the previous one has answered.
func driveReads(r *run) error {
	r.loaded = r.s.or.m.Lens()
	var wg sync.WaitGroup
	for c := 0; c < r.wl.conns; c++ {
		log := &clientLog{}
		r.logs = append(r.logs, log)
		gen := r.wl.ops(r.seed*16+int64(c), r.wl.stations, r.wl.days)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; r.since() < r.end; i++ {
				r.read(log, gen.Next(), i)
			}
		}()
	}
	wg.Wait()
	return nil
}

// read sends one Q-op and records it; every checkEvery-th answer goes to the
// oracle. The answer must match the model somewhere between what was
// acknowledged before the request and what had been sent by its answer.
func (r *run) read(log *clientLog, op mark.Op, i int) {
	lo := r.held(r.acked)
	s := r.begin(op)
	raw, err := r.s.w.query(mark.Params(op, r.s.or.ids))
	s.end = r.since()
	if err == nil && i%r.wl.checkEvery == 0 {
		err = r.s.or.check(op, raw, prefixes{lo: lo, hi: r.held(r.issued)})
		s.checked = r.since()
	}
	log.add(s, err)
}

// driveIngestMixed runs an open-loop writer beside a closed-loop reader. The
// writer's appends are generated up front and already sit in the model, so
// "what the server may hold" is a pair of per-station counters and the reader
// never reads a slice the writer is growing.
func driveIngestMixed(r *run) error {
	n := len(r.s.or.m.Vals)
	total := int(float64(writeRate)*r.end.Seconds()) + 1
	appends := mark.Take(mark.NewAppends(r.seed, r.wl.stations, r.wl.days), total)
	for _, op := range appends {
		r.s.or.m.Vals[op.St] = append(r.s.or.m.Vals[op.St], op.V)
	}
	r.acked, r.issued = make([]atomic.Int32, n), make([]atomic.Int32, n)
	for st := 0; st < n; st++ {
		r.acked[st].Store(int32(r.wl.days * 24))
		r.issued[st].Store(int32(r.wl.days * 24))
	}
	var lastAcked atomic.Int32
	lastAcked.Store(-1)

	writer, reader := &clientLog{}, &clientLog{}
	r.logs = []*clientLog{writer, reader}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		period := time.Second / writeRate
		for j, op := range appends {
			due := time.Duration(j) * period
			if due >= r.end {
				return
			}
			if wait := due - r.since(); wait > 0 {
				time.Sleep(wait)
			}
			r.issued[op.St].Add(1)
			s := sample{op: op, start: due, sent: r.since()}
			err := r.s.w.appendPoint(r.s.or.ids[op.St], op.Start, op.V)
			s.end = r.since()
			if err == nil {
				r.acked[op.St].Add(1)
				lastAcked.Store(int32(op.St))
			}
			writer.add(s, err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; r.since() < r.end; {
			st := int(lastAcked.Load())
			if st < 0 {
				time.Sleep(time.Millisecond) // nothing acknowledged yet
				continue
			}
			// The station's newest acknowledged sample ends every window,
			// so each answer must show it: read-your-writes.
			end := int64(r.acked[st].Load()) * mark.Hour
			day := (end - mark.Hour) / mark.Day * mark.Day
			for _, op := range []mark.Op{
				// Day-aligned, so the window's cache entry lives for 24
				// appends to the station and is patched by each.
				{Class: "downsample", St: st, Start: day - 13*mark.Day, End: day + mark.Day, Bucket: mark.Hour},
				{Class: "Q3", St: st, Start: end - 2*mark.Day, End: end},
				{Class: "Q8", St: st, Start: end - 2*mark.Day, End: end},
				{Class: "Q4", Start: end - 7*mark.Day, End: end},
			} {
				r.read(reader, op, i)
				i++
			}
		}
	}()
	wg.Wait()
	return nil
}

// driveHyQLLive is one dashboard client: append a sample, then refresh four
// HyQL panels over the trailing 30 days, the first of them twice. The first
// H1 after the acknowledged write finds the tenant's view stale; the second
// finds it current.
func driveHyQLLive(r *run) error {
	m := r.s.or.m
	log := &clientLog{}
	r.logs = []*clientLog{log}
	lens := m.Lens()
	gen := mark.NewRefreshes(r.seed, r.wl.stations, r.wl.days)
	// A series vertex is valid from its first sample to its last, so the
	// query instant is the last loaded hour, which every series covers.
	at := int64(r.wl.days)*mark.Day - mark.Hour
	for r.since() < r.end {
		op := gen.Next()
		m.Vals[op.St] = append(m.Vals[op.St], op.V)
		s := r.begin(op)
		err := r.s.w.appendPoint(r.s.or.ids[op.St], op.Start, op.V)
		s.end = r.since()
		log.add(s, err)
		if err != nil {
			return fmt.Errorf("hyql_live cannot continue after a failed append: %w", err)
		}
		lens[op.St]++
		end := int64(lens[op.St]) * mark.Hour
		start := end - 30*mark.Day
		for _, class := range []string{"H1", "H1warm", "H2", "H3", "H4"} {
			form := class
			if class == "H1warm" {
				form = "H1"
			}
			s := r.begin(mark.Op{Class: class, St: op.St, Start: start, End: end})
			rows, err := r.s.w.hyql(mark.HyQLText(form, m.Names[op.St], start, end), at)
			s.end = r.since()
			if err == nil {
				err = r.s.or.checkHyQL(form, op.St, start, end, rows, lens)
				s.checked = r.since()
			}
			log.add(s, err)
		}
	}
	return nil
}

// probeRestart is the durability check after ingest_mixed: the child has been
// killed without a drain and restarted on the same directory. Every station
// must be there with its loaded samples, and every acknowledged append must
// be readable; an append that was sent but never acknowledged may be either.
// It returns the checks made, the failures, and the first failure.
func probeRestart(r *run, w *wire) (attempted, lost int, first error) {
	fail := func(err error) {
		lost++
		if first == nil {
			first = err
		}
	}
	or := r.s.or
	attempted++
	if n, err := w.stationCount(); err != nil || n != r.wl.stations {
		fail(fmt.Errorf("after restart the server reports %d stations, want %d (err %v)", n, r.wl.stations, err))
		return attempted, lost, first
	}
	loaded := int64(r.wl.days) * mark.Day
	for st := 0; st < r.wl.stations; st++ {
		attempted += 2
		base := mark.Op{Class: "Q3", St: st, Start: 0, End: loaded}
		if raw, err := w.query(mark.Params(base, or.ids)); err != nil {
			fail(err)
		} else if err := or.check(base, raw, prefixes{lo: or.m.Lens(), hi: or.m.Lens()}); err != nil {
			fail(fmt.Errorf("after restart: %w", err))
		}
		tail := mark.Op{Class: "Q1", St: st, Start: loaded, End: int64(len(or.m.Vals[st])+1) * mark.Hour}
		lo, hi := r.held(r.acked), r.held(r.issued)
		if raw, err := w.query(mark.Params(tail, or.ids)); err != nil {
			fail(err)
		} else if err := or.check(tail, raw, prefixes{lo: lo, hi: hi}); err != nil {
			fail(fmt.Errorf("after restart, station %d acked %s appends: %w", st, strconv.Itoa(lo[st]-r.wl.days*24), err))
		}
	}
	return attempted, lost, first
}
