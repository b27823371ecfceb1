package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"hygraph/benchmark/mark"
)

// The ladder replays at most ladderOps recorded ops per rung, and no more than
// took ladderBudget end to end, which bounds a rung of slow ops: the first
// half warms each rung's caches the way the window's earlier traffic did, the
// second half is timed.
const (
	ladderOps    = 3000
	ladderBudget = 2 * time.Second
)

// ladder is what benchmark/layers prints: per op class, the median time of
// one op at each rung, in microseconds. A rung an op class does not reach
// (HyQL below the server, coord on one partition) is absent.
type ladder struct {
	Classes map[string]map[string]float64 `json:"classes"`
}

// runLadder replays the traced half's first ops against each layer's public
// functions, from outside, in a separate program built with the "layers" tag.
// That program is the only part of hymark that imports the repository; when a
// refactor breaks it the e2e numbers and tier-1 are unaffected, and this
// returns the error for the caller to report the ladder as stale.
func runLadder(root string, r *run, traced []sample) (*ladder, error) {
	dir := filepath.Join(root, "benchmark")
	bin := filepath.Join(root, ".bench_build", "bin", "hymark-layers")
	if err := goBuild(dir, bin, "-tags", "layers", "./layers"); err != nil {
		return nil, err
	}
	var ops []mark.Op
	var spent time.Duration
	for _, s := range traced {
		if spent += s.end - s.sent; len(ops) == ladderOps || spent > ladderBudget {
			break
		}
		ops = append(ops, s.op)
	}
	raw, err := json.Marshal(ops)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	opsFile := filepath.Join(out, r.wl.name+".ops.json")
	if err := os.WriteFile(opsFile, raw, 0o644); err != nil {
		return nil, err
	}
	tmp := filepath.Join(root, ".bench_build", "data", r.wl.name+".ladder")
	defer os.RemoveAll(tmp)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-ops", opsFile, "-tmp", tmp, "-seed", strconv.FormatInt(r.seed, 10),
		"-stations", strconv.Itoa(r.wl.stations), "-days", strconv.Itoa(r.wl.days),
		"-partitions", strconv.Itoa(r.wl.partitions))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("running the ladder: %w: %s", err, stderr.String())
	}
	var l ladder
	if err := json.Unmarshal(stdout.Bytes(), &l); err != nil {
		return nil, fmt.Errorf("the ladder printed %.200q: %w", stdout.String(), err)
	}
	if err := os.WriteFile(filepath.Join(out, r.wl.name+".ladder.json"), stdout.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &l, nil
}

// report turns the lead class's rungs into the ladder's per-layer metrics: a
// layer's added cost is its rung minus the rung below. -1 marks a number the
// ladder could not give — it is stale, or the class has no such rung.
func (l *ladder) report(res *result, lead string, e2eMS []float64) {
	rung := map[string]float64{}
	if l != nil {
		rung = l.Classes[lead]
		for class, rungs := range l.Classes {
			for name, us := range rungs {
				res.Diagnostics["ladder."+class+"."+name+"_us"] = us
			}
		}
	}
	get := func(name string) (float64, bool) { v, ok := rung[name]; return v, ok }
	minus := func(upper string, lower ...string) float64 {
		u, ok := get(upper)
		for _, name := range lower {
			v, has := get(name)
			u, ok = u-v, ok && has
		}
		if !ok {
			return -1
		}
		return u
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, "us"} }
	set("tsstore.busy_us", minus("tsstore"))
	set("graphstore.busy_us", minus("graphstore"))
	set("ttdb.self_us", minus("polyglot", "tsstore", "graphstore"))
	set("ttdb.durable_added_us", minus("durable", "polyglot"))
	conn := "durable"
	if _, ok := get("coord"); ok {
		conn = "coord"
		set("coord.added_us", minus("coord", "durable"))
	} else if _, ok := get("durable"); ok {
		set("coord.added_us", 0) // one partition: no coordinator on the path
	} else {
		set("coord.added_us", -1)
	}
	set("server.added_us", minus("handler", conn))
	e2eUS := mark.Percentile(e2eMS, 50) * 1e3
	wire, sum := -1.0, -1.0
	if h, ok := get("handler"); ok {
		wire = e2eUS - h
	}
	if c, ok := get("client"); ok && e2eUS > 0 {
		sum = c / e2eUS
	}
	set("wire.added_us", wire)
	res.Metrics["ladder.sum_over_e2e"] = metric{sum, "ratio"}
}
