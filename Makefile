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
# panic or mis-recover on arbitrary log bytes, and the HyQL parser must never
# panic on arbitrary query text.
fuzz:
	$(GO) test ./internal/storage/graphstore -run FuzzWALReplay -fuzz FuzzWALReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hyql -run FuzzParse -fuzz FuzzParse -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench . -benchmem ./...

# Race-enabled smoke of the parallel bench path: DefaultConfig at Reps=2
# with the sequential-vs-parallel comparison (which exits non-zero if the
# parallel results ever diverge), a concurrent-client burst, and a schema
# check of the emitted baseline. The second run smokes the mixed
# read/write path — concurrent ingest + query clients over the sharded
# group-committed durable engine — at small scale, still under -race.
# The third run smokes the served-workload path: the network query service
# on a loopback port under open-loop load below and above the admission
# limit (not under -race — open-loop timing is the point being measured).
# The fourth run smokes the storage path: chunk compression + cold tier
# (points-per-MB, the 4x ratio floor, spill + cold/warm scans, Q1-Q8
# deltas). The fifth run smokes the partition-scaling path under -race:
# the scatter-gather coordinator at 1 and 2 partitions, which exits
# non-zero unless every merged answer is element-wise identical to the
# single-engine oracle. Every emitted baseline is validated by -check, and
# the first must carry the v6 schema tag. Writes to scratch files so the
# committed BENCH_table1.json is never clobbered by a -race-skewed run.
benchsmoke:
	$(GO) run -race ./cmd/hybench -reps 2 -parallel -clients 4 -ops 8 -metrics -json /tmp/hybench_smoke.json
	$(GO) run -race ./cmd/hybench -scale small -reps 2 -mixed -ingest 2 -query 2 -mixedms 25 -shapemin 5 -json /tmp/hybench_smoke_mixed.json
	$(GO) run ./cmd/hybench -scale small -reps 2 -serve -servems 200 -shapemin 5 -json /tmp/hybench_smoke_serve.json
	$(GO) run -race ./cmd/hybench -scale small -reps 2 -storage -shapemin 5 -json /tmp/hybench_smoke_storage.json
	$(GO) run -race ./cmd/hybench -scale small -reps 2 -partitions 1,2 -shapemin 5 -json /tmp/hybench_smoke_parts.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke_mixed.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke_serve.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke_storage.json
	$(GO) run ./cmd/hybench -check /tmp/hybench_smoke_parts.json
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
