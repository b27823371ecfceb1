package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// tracer makes a run the traced run. The measured window is split in two:
// the first half runs as an untraced run does, and over the second half the
// harness snapshots /v1/metrics at both ends and keeps one span per request
// (and one per wire round trip and oracle check inside it), written out at
// exit. The two halves' ops_s differ by the tracing overhead. Spans inside
// the program are a later change; these are the client's.
type tracer struct {
	from          time.Duration // the traced half starts here
	w             *wire         // a control connection of its own
	before, after *metrics
	snapped       chan error
}

func startTracer(r *run, warm time.Duration) *tracer {
	t := &tracer{from: warm + (r.end-warm)/2, w: newWire(r.s.c.base, 1), snapped: make(chan error, 1)}
	go func() {
		time.Sleep(t.from - r.since())
		var err error
		t.before, err = t.w.metrics()
		t.snapped <- err
	}()
	return t
}

// finish takes the closing snapshot; call it when the clients have stopped.
func (t *tracer) finish() error {
	defer t.w.close()
	if err := <-t.snapped; err != nil {
		return fmt.Errorf("metrics snapshot at the start of the traced half: %w", err)
	}
	var err error
	if t.after, err = t.w.metrics(); err != nil {
		return fmt.Errorf("metrics snapshot at the end of the traced half: %w", err)
	}
	return nil
}

// span is one line of the trace file.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes the traced half's spans to benchmark/out.
func writeSpans(path string, samples []sample) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range samples {
		op := "client." + s.op.Class
		spans := []span{{Req: i, Name: op, StartNS: int64(s.start), EndNS: int64(max(s.end, s.checked))},
			{Req: i, Name: "client.http", Parent: op, StartNS: int64(s.sent), EndNS: int64(s.end)}}
		if s.checked > 0 {
			spans = append(spans, span{Req: i, Name: "client.check", Parent: op, StartNS: int64(s.end), EndNS: int64(s.checked)})
		}
		for _, sp := range spans {
			if err == nil {
				err = enc.Encode(sp)
			}
		}
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// counter is the growth of a counter over the traced half; a counter the
// server does not export (coord.* on one partition) has not grown.
func (t *tracer) counter(name string) float64 {
	return t.after.Counters[name] - t.before.Counters[name]
}

// sum adds the growth of every counter with the prefix.
func (t *tracer) sum(prefix string) float64 {
	total := 0.0
	for name := range t.after.Counters {
		if strings.HasPrefix(name, prefix) {
			total += t.counter(name)
		}
	}
	return total
}

// meanUS is the mean of the timers with the prefix over the traced half, in
// microseconds per timed call.
func (t *tracer) meanUS(prefix string) float64 {
	var ns, n float64
	for name, d := range t.after.Durations {
		if strings.HasPrefix(name, prefix) {
			ns += d.TotalNS - t.before.Durations[name].TotalNS
			n += d.Count - t.before.Durations[name].Count
		}
	}
	return ratio(ns/1e3, n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report derives the per-layer metrics, runs the ladder, and writes the trace
// files. It returns "ok", or "stale" when the ladder no longer builds or runs
// against the repository — its metrics then read -1 and the rest stand.
func (t *tracer) report(root string, res *result, r *run) string {
	warm := time.Duration(res.WarmupS * float64(time.Second))
	plain, traced := window(r, warm, t.from), window(r, t.from, r.end)
	out := filepath.Join(root, "benchmark", "out")
	if err := writeSpans(filepath.Join(out, r.wl.name+".trace.jsonl"), traced); err != nil {
		fmt.Fprintln(os.Stderr, "hymark: writing the trace:", err)
	}

	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	var clientUS float64
	for _, s := range traced {
		clientUS += float64(s.end-s.sent) / 1e3
	}
	set("server.requests", t.counter("server.requests"), "count")
	set("server.shed", t.sum("server.shed."), "count")
	set("server.deadline_miss", t.counter("server.deadline_miss"), "count")
	set("server.queue_depth_high", t.after.Gauges["server.queue.depth"].High, "count")
	set("server.mean_us", t.meanUS("server.latency"), "us")
	set("wire.mean_added_us", ratio(clientUS, float64(len(traced)))-t.meanUS("server.latency"), "us")
	set("coord.scatter.calls", t.counter("coord.scatter.calls"), "count")
	set("coord.fragments_per_call", ratio(t.counter("coord.scatter.fragments"), t.counter("coord.scatter.calls")), "ratio")
	set("ttdb.q_mean_us", t.meanUS("ttdb.q"), "us")
	set("ttdb.fanout.items_per_call", ratio(t.counter("ttdb.fanout.items"), t.counter("ttdb.fanout.calls")), "ratio")
	set("ttdb.journal.commits_per_station", ratio(t.after.Counters["ttdb.journal.commit"], t.after.Counters["ttdb.ingest.stations"]), "ratio")
	set("tsstore.reads", t.counter("tsstore.reads"), "count")
	set("tsstore.block.hit_ratio", ratio(t.counter("tsstore.block.hits"), t.counter("tsstore.block.hits")+t.counter("tsstore.block.misses")), "share")
	for _, c := range []string{"hits", "misses", "patches", "invalidations"} {
		set("tsstore.cache."+c, t.counter("tsstore.cache."+c), "count")
	}
	set("tsstore.compress.seals", t.counter("tsstore.compress.seals"), "count")
	set("tsstore.compress.inflates", t.counter("tsstore.compress.inflates"), "count")
	set("graphstore.reads", t.counter("graphstore.reads"), "count")
	set("graphstore.prop_scanned_per_read", ratio(t.counter("graphstore.prop_records_scanned"), t.counter("graphstore.reads")), "ratio")
	set("walrec.appends", t.counter("tsstore.wal.appends")+t.counter("graphstore.wal.appends"), "count")
	c := t.after.Counters
	set("walrec.appends_per_flush", ratio(c["tsstore.wal.appends"]+c["graphstore.wal.appends"], c["tsstore.wal.flushes"]+c["graphstore.wal.flushes"]), "ratio")
	appended := 0
	for _, s := range window(r, 0, r.end) {
		if s.op.Class == "append" && !s.failed {
			appended++
		}
	}
	set("walrec.bytes_per_point", ratio(c["tsstore.wal.append_bytes"]+c["graphstore.wal.append_bytes"], float64(res.Points+appended)), "B")
	rebuild := 0.0
	if r.wl.name == "hyql_live" {
		rebuild = res.Metrics["lead_p50_ms"].Value - res.Metrics["base_p50_ms"].Value
	}
	set("hyql.view_rebuild_ms", rebuild, "ms")
	set("trace.overhead_share", 1-ratio(readRate(traced, t.from, r.end), readRate(plain, warm, t.from)), "share")

	state := "ok"
	rungs, err := runLadder(root, r, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hymark: the layer ladder is stale:", err)
		state = "stale"
	}
	rungs.report(res, r.wl.lead, latenciesMS(traced, r.wl.lead))
	return state
}
