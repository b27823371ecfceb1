# Tier-1 verification gate (see ROADMAP.md). `make verify` must stay green.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify fmt vet lint build test race fuzz bench benchsmoke servesmoke cover layers loc

verify: fmt vet lint build race fuzz benchsmoke servesmoke cover layers

# gofmt gate: every git-tracked Go file must already be gofmt-clean; any
# file gofmt -l lists fails the build.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# hyvet: the repo's own analyzer suite (docs/STATIC_ANALYSIS.md). Exit 1 on
# findings; `make lint JSON=1` emits machine-readable findings instead.
lint:
	$(GO) run ./cmd/hyvet $(if $(JSON),-json) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz runs of the corpus-seeded fuzzers: the WAL replayer must never
# panic or mis-recover on arbitrary log bytes, the HyQL parser must never
# panic on arbitrary query text, and the sealed-chunk block decoder must
# accept, reject and decode arbitrary bytes exactly as the bit-at-a-time
# reference decoder in its tests does (and its sub-slot index must resume
# and scan to exactly the decoded points), the snapshot loader must never
# panic, nor let a query over what it loaded panic or hide a corrupt block,
# the time-series WAL replayer must never panic nor half-apply a record, the
# neighbour-driven pattern matcher must return exactly the matches, order
# and edge paths of the generate-and-test reference matcher in its tests,
# the served query-string decoder must never panic, must parse a query it
# accepted back from its re-encoding unchanged, and must hand the engine only
# queries that answer or fail with ErrBadQuery, polyglot recovery over any
# graph-log and TS-log bytes must never panic, must give the same result
# twice, and must leave an engine that passes CheckConsistency, needs no
# second repair and survives its own compaction unchanged, and a store's
# downsample of any window,
# after any mix of appends, upserts, NaNs, deletes and seals, must
# equal the resample of its range bit for bit (and its resampled
# correlation the Pearson of those resamples), and the station-body decoder
# must accept exactly the bodies the reflective encoding/json decode it
# replaced accepts and decode them to the same request bit for bit, and a
# Q4, Q5 or Q8 answer of any ids, district bytes and floats must encode
# exactly as encoding/json encodes the map of its rows, and the graph a
# HyQL engine over an instance matches at any instant, after any mix of
# writes, ended edges, appends and backfills, must equal a fresh copy of
# the instance's elements valid at that instant. Each
# new interesting input is minimised for at most 1s: at Go's 60s default a
# 10s run spends most of its time minimising instead of fuzzing.
fuzz:
	$(GO) test ./internal/storage/graphstore -run FuzzWALReplay -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/hyql -run FuzzParse -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/lpg -run FuzzMatchPattern -fuzz FuzzMatchPattern -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/storage/tsstore -run FuzzDecodeChunk -fuzz FuzzDecodeChunk -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/storage/tsstore -run FuzzLoadSnapshot -fuzz FuzzLoadSnapshot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/storage/tsstore -run FuzzTSWALReplay -fuzz FuzzTSWALReplay -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/server -run FuzzParseQuery -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/storage/ttdb -run FuzzRecoverPolyglot -fuzz FuzzRecoverPolyglot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/storage/tsstore -run FuzzDownsample -fuzz FuzzDownsample -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/server -run FuzzStationBody -fuzz FuzzStationBody -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/storage/ttdb -run FuzzResultJSON -fuzz FuzzResultJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/hyql -run FuzzViewEqualsSnapshot -fuzz FuzzViewEqualsSnapshot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

bench:
	$(GO) test -bench . -benchmem ./...

# Race-enabled smoke of the in-process bench sections. The first run is
# DefaultConfig at Reps=10 with the sequential-vs-parallel comparison (which
# exits non-zero if the parallel results ever diverge) and the instrumented
# durable exercise (-metrics). The second run, at small scale, smokes the
# storage path — chunk compression (points-per-MB, the 4x ratio floor,
# raw/compressed result identity, Q1-Q8 deltas) — and the partition-scaling
# path: the scatter-gather coordinator at 1 and 2 partitions, which exits
# non-zero unless every merged answer is element-wise identical to the
# single-engine oracle. Both runs assert the Table 1 shape. Every emitted
# baseline is validated by -check, and the first must carry the v6 schema
# tag. Both runs take 10 reps, and Table 1 alternates the two engines'
# samples: at 2 reps timed one engine after the other, machine noise under
# -race moved a speedup across its bound in two of five runs (Q8 44.5x and
# 49.0x against 50x). Served and concurrent behaviour is measured by hymark
# (benchmark/README.md) and the testing.B benches, not here. Writes to
# scratch files so the committed BENCH_table1.json is never clobbered by a
# -race-skewed run.
benchsmoke:
	$(GO) run -race ./cmd/hybench -reps 10 -parallel -metrics -json /tmp/hybench_smoke.json
	$(GO) run -race ./cmd/hybench -scale small -reps 10 -storage -partitions 1,2 -shapemin 5 -json /tmp/hybench_smoke_small.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke_small.json
	grep -q '"schema": "hybench-table1/v6"' /tmp/hybench_smoke.json

# Server smoke (docs/SERVICE.md): one live `hygraph serve -smoke` run under
# -race, at one partition and at two — random loopback port, durable ingest
# + query through the retry client, one forced shed carrying Retry-After, one
# deadline-exceeded request, graceful stop, then a recovery check by a second
# server over the same directory proving the acknowledged writes survive.
servesmoke:
	rm -rf /tmp/hygraph_servesmoke
	$(GO) run -race ./cmd/hygraph serve -smoke -dir /tmp/hygraph_servesmoke

# Coverage gate: statement coverage of the hybrid-graph core, the property
# graph library, the storage engines, the coordinator, the time-series
# library, the observability layer, the bench harness, the HyQL engine, the
# HTTP server and the hyvet analysis library must stay at or above the floor recorded in coverage.txt
# (a bare percentage; raise it as tests accumulate).
cover:
	$(GO) test -coverprofile=/tmp/hygraph_cover.out ./internal/core ./internal/lpg ./internal/storage/... ./internal/coord ./internal/ts ./internal/obs ./internal/bench ./internal/hyql ./internal/server ./internal/analysis
	@total=$$($(GO) tool cover -func=/tmp/hygraph_cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat coverage.txt); \
	echo "coverage: $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' \
		|| { echo "coverage $$total% fell below the $$floor% floor in coverage.txt"; exit 1; }

# Informational, not part of verify: the non-test Go line count outside the
# benchmark module, the size figure ROADMAP.md tracks from change to change.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^benchmark/' | xargs cat | wc -l

# Status line for the benchmark module's in-process layer ladder
# (benchmark/layers, build tag "layers"): it shows whether the functions kept
# for that ladder still compile against the tree. Non-blocking: the ladder is
# known stale (ROADMAP item 1a), so a failure prints its first lines and
# verify goes on.
layers:
	@out=$$(cd benchmark && $(GO) vet -tags layers ./layers 2>&1) \
		&& echo "layers: go vet -tags layers ./layers ok" \
		|| { echo "layers: go vet -tags layers ./layers FAILS (non-blocking, ROADMAP item 1a):"; echo "$$out" | head -5; }
