package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hygraph/benchmark/mark"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is the environment fingerprint every result carries.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Race       bool    `json:"race"` // must be false: a -race harness is not comparable
	LoadAvg1   float64 `json:"loadavg1"`
	BusyShare  float64 `json:"busy_share"` // of all CPUs, over 100 ms before the run, by anyone
}

// environment fingerprints the machine and the checkout. The child is built
// by this command without -race and runs at its default GOMAXPROCS, so the
// harness's own values describe both.
func environment(root string) envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "none", Race: raceEnabled}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil { // a checkout need not be a git repository
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // informational; 0 when unparsable
		}
	}
	busy0, total0 := cpuTicks()
	time.Sleep(100 * time.Millisecond)
	busy1, total1 := cpuTicks()
	e.BusyShare = ratio(busy1-busy0, total1-total0)
	return e
}

// cpuTicks reads the machine's busy and total CPU time from /proc/stat; both
// are 0 when it cannot be read, which never marks a run unresolved.
func cpuTicks() (busy, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	for i, field := range f[1:] {
		v, _ := strconv.ParseFloat(field, 64)
		total += v
		if i != 3 && i != 4 { // idle, iowait
			busy += v
		}
	}
	return busy, total
}

// cpuProbe times a fixed piece of work of the kind set-up spends its time on
// — encoding a year of hourly samples as JSON — on every CPU at once. It runs
// while the child is idle, before and after the window, and is only a
// diagnostic: it tells a slow machine from a slow commit when two reports are
// read side by side.
func cpuProbe() time.Duration {
	st := mark.Station{Name: "probe", District: "probe", Vals: make([]float64, 364*24)}
	for i := range st.Vals {
		st.Vals[i] = float64(i%37) + 0.5
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				mark.StationBody(&st)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// result is everything one run of one workload reports.
type result struct {
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	Traced      bool                    `json:"traced"`
	Status      string                  `json:"status"` // "ok", or "unresolved: why"
	Env         envInfo                 `json:"env"`
	Stations    int                     `json:"stations"`
	Days        int                     `json:"days"`
	Points      int                     `json:"points"`
	Partitions  int                     `json:"partitions"`
	DatasetHash string                  `json:"dataset_hash"`
	WindowS     float64                 `json:"window_s"`
	WarmupS     float64                 `json:"warmup_s"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	FirstError  string                  `json:"first_error,omitempty"`
	Metrics     map[string]metric       `json:"metrics"`
	Classes     map[string]mark.Summary `json:"classes_ms"`
	Diagnostics map[string]float64      `json:"diagnostics"`
	Layers      string                  `json:"layers,omitempty"` // traced runs: "ok" or "stale"
}

// runOne sets up, drives and tears down one workload.
func runOne(root, bin string, env envInfo, wl *workload, o options) (res *result, err error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds %v: the window must be at least 1 s", o.seconds)
	}
	ds := mark.Generate(o.seed, wl.stations, wl.days)
	dir := filepath.Join(root, ".bench_build", "data", wl.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	traced := o.trace == 1
	reps := o.setups
	if traced {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	s, setups, err := timedSetUps(bin, dir, ds, wl.partitions, wl.conns, reps)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.c.kill() // whichever child is current; a no-op once it has exited
		}
	}()
	res = &result{Workload: wl.name, Seed: o.seed, Traced: traced, Status: "ok", Env: env,
		Stations: wl.stations, Days: wl.days, Points: ds.Points(), Partitions: wl.partitions,
		DatasetHash: ds.Hash(), WindowS: o.seconds, WarmupS: o.warmup,
		Metrics: map[string]metric{}, Classes: map[string]mark.Summary{}, Diagnostics: map[string]float64{}}
	if env.BusyShare > 0.5 {
		res.Status = fmt.Sprintf("unresolved: the machine was %.0f%% busy before the run started", 100*env.BusyShare)
	}
	probe := cpuProbe()

	warm := time.Duration(o.warmup * float64(time.Second))
	r := &run{wl: wl, s: s, seed: o.seed, origin: time.Now(), end: warm + time.Duration(o.seconds*float64(time.Second))}
	var tr *tracer
	if traced {
		tr = startTracer(r, warm)
	}
	if err := wl.drive(r); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.finish(); err != nil {
			return nil, err
		}
	}
	rss, err := s.c.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Diagnostics["cpu_probe_ms"] = float64(probe+cpuProbe()) / 2e6
	diskBytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	if wl.name == "ingest_mixed" {
		// Durability: no drain, no flush — whatever an acknowledged append
		// needs to survive must already have left the process.
		s.w.close()
		s.c.kill()
		t0 := time.Now()
		c, err := startChild(bin, dir, wl.partitions)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		s.c, s.w = c, newWire(c.base, wl.conns)
		if _, err := s.w.stationCount(); err != nil { // the tenant recovers on first use
			return nil, fmt.Errorf("first request after restart: %w", err)
		}
		res.Diagnostics["recover_s"] = time.Since(t0).Seconds()
		attempted, lost, first := probeRestart(r, s.w)
		res.Attempted += attempted
		res.Failed += lost
		res.Diagnostics["lost_acked"] = float64(lost)
		if first != nil {
			res.FirstError = first.Error()
		}
	}
	if err := s.tearDown(dir); err != nil {
		return nil, err
	}

	res.summarize(r, warm)
	res.Diagnostics["disk_bytes_per_point"] = float64(diskBytes) / float64(res.Points)
	if traced {
		res.Layers = tr.report(root, res, r)
		return res, nil
	}
	sort.Float64s(setups)
	res.Metrics["setup_s"] = metric{setups[len(setups)/2], "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	for i, t := range setups {
		res.Diagnostics["setup_s."+strconv.Itoa(i)] = t
	}
	return res, nil
}

// window returns the samples that finished inside [from, to).
func window(r *run, from, to time.Duration) []sample {
	var out []sample
	for _, log := range r.logs {
		for _, s := range log.samples {
			if s.end >= from && s.end < to {
				out = append(out, s)
			}
		}
	}
	return out
}

// latenciesMS returns the latencies of the correct answers of one op class.
func latenciesMS(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if s.op.Class == class && !s.failed {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// readRate is correct read answers per second: the window is cut into ten
// equal slices and the rates of the middle six are averaged, which a single
// stall moves less than the plain mean does.
func readRate(samples []sample, from, to time.Duration) float64 {
	const slices = 10
	width := (to - from) / slices
	rates := make([]float64, slices)
	for _, s := range samples {
		if s.op.Class != "append" && !s.failed {
			rates[min(int((s.end-from)/width), slices-1)] += 1 / width.Seconds()
		}
	}
	sort.Float64s(rates)
	total := 0.0
	for _, rate := range rates[2:8] {
		total += rate / 6
	}
	return total
}

// summarize turns the measured window into the end-to-end metrics, the
// per-class latency table and the run's failure count.
func (res *result) summarize(r *run, warm time.Duration) {
	samples := window(r, warm, r.end)
	classes := map[string]bool{}
	var checkNS time.Duration
	for _, s := range samples {
		classes[s.op.Class] = true
		if s.failed {
			res.Failed++
		}
		if s.checked > 0 {
			checkNS += s.checked - s.end
		}
	}
	res.Attempted += len(samples)
	for _, log := range r.logs {
		if log.firstErr != nil && res.FirstError == "" {
			res.FirstError = log.firstErr.Error()
		}
	}
	for class := range classes {
		res.Classes[class] = mark.Summarize(latenciesMS(samples, class))
	}
	res.Metrics["ops_s"] = metric{readRate(samples, warm, r.end), "1/s"}
	res.Metrics["lead_p50_ms"] = metric{res.Classes[r.wl.lead].P50, "ms"}
	res.Metrics["base_p50_ms"] = metric{res.Classes[r.wl.base].P50, "ms"}
	res.Diagnostics["oracle_cpu_share"] = checkNS.Seconds() / ((r.end - warm).Seconds() * float64(len(r.logs)))

	if r.wl.name == "ingest_mixed" {
		var late []float64
		for _, s := range samples {
			if s.op.Class == "append" {
				late = append(late, float64(s.sent-s.start)/1e6)
			}
		}
		p99 := mark.Percentile(late, 99)
		res.Diagnostics["writer_lateness_p99_ms"] = p99
		res.Diagnostics["offered_writes_s"] = writeRate
		if p99 > 5 && res.Status == "ok" {
			res.Status = fmt.Sprintf("unresolved: writer lateness p99 %.2f ms exceeds 5 ms", p99)
		}
	}
}

// printDiagnostics writes the human-readable report.
func (res *result) printDiagnostics(w io.Writer) {
	fmt.Fprintf(w, "hymark %s seed=%d traced=%v status=%s\n", res.Workload, res.Seed, res.Traced, res.Status)
	fmt.Fprintf(w, "  env: nproc=%d GOMAXPROCS=%d %s commit=%s race=%v loadavg1=%.2f busy=%.2f\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit, res.Env.Race, res.Env.LoadAvg1, res.Env.BusyShare)
	fmt.Fprintf(w, "  data: %d stations x %d days = %d points, %d partition(s), hash %s; window %.1fs after %.1fs warm-up\n",
		res.Stations, res.Days, res.Points, res.Partitions, res.DatasetHash, res.WindowS, res.WarmupS)
	fmt.Fprintf(w, "  attempted=%d failed=%d error_rate=%.6f\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	if res.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.FirstError)
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, class := range sortedKeys(res.Classes) {
		c := res.Classes[class]
		fmt.Fprintf(w, "  class %-12s n=%-7d p50=%9.4f ms  p%g=%9.4f ms\n", class, c.N, c.P50, c.TailP, c.Tail)
	}
	for _, name := range sortedKeys(res.Diagnostics) {
		fmt.Fprintf(w, "  diag %-31s %14.4f\n", name, res.Diagnostics[name])
	}
	if res.Layers != "" {
		fmt.Fprintf(w, "  \"layers\":%q\n", res.Layers)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendHistory adds the run's headline to a JSON-lines file, so the
// trajectory across commits is kept and not overwritten.
func (res *result) appendHistory(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
