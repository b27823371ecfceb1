# Tier-1 verification gate (see ROADMAP.md). `make verify` must stay green.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify fmt vet lint build test race fuzz bench benchsmoke servesmoke cover

verify: fmt vet lint build race fuzz benchsmoke servesmoke cover

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
# reference decoder in its tests does.
fuzz:
	$(GO) test ./internal/storage/graphstore -run FuzzWALReplay -fuzz FuzzWALReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hyql -run FuzzParse -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/tsstore -run FuzzDecodeChunk -fuzz FuzzDecodeChunk -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench . -benchmem ./...

# Race-enabled smoke of the in-process bench sections. The first run is
# DefaultConfig at Reps=2 with the sequential-vs-parallel comparison (which
# exits non-zero if the parallel results ever diverge) and the instrumented
# durable exercise (-metrics). The second run, at small scale, smokes the
# storage path — chunk compression + cold tier (points-per-MB, the 4x ratio
# floor, spill + cold/warm scans, Q1-Q8 deltas) — and the partition-scaling
# path: the scatter-gather coordinator at 1 and 2 partitions, which exits
# non-zero unless every merged answer is element-wise identical to the
# single-engine oracle. Both runs assert the Table 1 shape. Every emitted
# baseline is validated by -check, and the first must carry the v6 schema
# tag. Served and concurrent behaviour is measured by hymark
# (benchmark/README.md) and the testing.B benches, not here. Writes to
# scratch files so the committed BENCH_table1.json is never clobbered by a
# -race-skewed run.
benchsmoke:
	$(GO) run -race ./cmd/hybench -reps 2 -parallel -metrics -json /tmp/hybench_smoke.json
	$(GO) run -race ./cmd/hybench -scale small -reps 2 -storage -partitions 1,2 -shapemin 5 -json /tmp/hybench_smoke_small.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke_small.json
	grep -q '"schema": "hybench-table1/v6"' /tmp/hybench_smoke.json

# Server smoke (docs/SERVICE.md): one live `hygraph serve -smoke` run under
# -race — random loopback port, durable ingest + query through the retry
# client, one forced shed carrying Retry-After, one deadline-exceeded
# request, graceful stop, then a recovery check proving the acknowledged
# writes survive from the directory alone.
servesmoke:
	rm -rf /tmp/hygraph_servesmoke
	$(GO) run -race ./cmd/hygraph serve -smoke -dir /tmp/hygraph_servesmoke

# Coverage gate: statement coverage of the storage engines, the coordinator,
# the time-series library (home of the ContAgg continuous aggregates), the
# observability layer, the bench harness, and the HyQL engine must stay at
# or above the floor recorded in coverage.txt (a bare percentage; raise it
# as tests accumulate).
cover:
	$(GO) test -coverprofile=/tmp/hygraph_cover.out ./internal/storage/... ./internal/coord ./internal/ts ./internal/obs ./internal/bench ./internal/hyql
	@total=$$($(GO) tool cover -func=/tmp/hygraph_cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat coverage.txt); \
	echo "coverage: $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' \
		|| { echo "coverage $$total% fell below the $$floor% floor in coverage.txt"; exit 1; }
