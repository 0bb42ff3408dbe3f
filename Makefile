GO ?= go

# Tier-1 verify (referenced from ROADMAP.md): everything must build, every
# test must pass — the root package's TestNoContextTwins among them, which
# fails when any package declares X beside XContext/XCtx on one receiver —
# the tree must be lint-clean (the block codec for a big-endian host too: its
# PLAIN fallback compiles nowhere else), the bounded differential suites
# (compressed execution, single-table, hash join, streamed UDTF) must agree
# bitwise, and the eleven fuzz-smoke targets (parser, four equivalence
# targets, shard-partial import, broadcast-build decode, serving frame
# decode, block decode, transfer message decode, the IRLS and Lloyd kernels
# against their row-at-a-time references) get a short run so the harness
# runs on every pass.
#
# Targets: check (= lint build test race difftest-short fuzz-smoke), vet,
# bench (benchmark/run.sh over the BENCHMARK.json workloads), bench-figures,
# chaos, recover, fuzz, loc.
.PHONY: check
check: lint build test race difftest-short fuzz-smoke

# Bounded runs of the differential suites (the full sweeps run under plain
# `go test`; this re-runs the bounded variants with a fresh binary so `make
# check` exercises the flag path too): the encoding-aware compressed suite
# and the single-table suite over indexed tables, both against the
# row-serial reference, the hash-join suite against the nested-loop
# reference, and the streamed-UDTF leg (PARTITION BEST block ranges against
# a read-everything, row-at-a-time reference).
.PHONY: difftest-short
difftest-short:
	$(GO) test -count=1 \
		-run='TestCompressedDifferentialAdversarial|TestDifferentialEngineVsReference|TestDifferentialJoinVsReference|TestDifferentialUDTFStream' \
		./internal/sqlexec/difftest/ -difftest.short

# Short fuzz smoke: the compressed-execution, hash-join and streamed-walker
# equivalence targets (the last holds the pipelined scan/probe/aggregate to
# the materializing walk it replaced, bit for bit, over fuzz-shaped tables),
# the SQL parser (the planner consumes whatever the parser yields,
# so parse robustness is tier-1), the router's import of shard partials, the
# peer's decode of a join's broadcast build tables, the serving frame
# decoder on both ends of a connection (internal/wire's codec, driven
# through the server's listener), the block decoder and the transfer
# hub's decode of a message, a run of chunks (bytes off a socket, all five),
# and the fit kernels bitwise against the row loops they replaced; enough to
# replay each corpus and explore a little.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseSelect -fuzztime=10s ./internal/sqlparse/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedScanEquivalence -fuzztime=10s ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedAggregateEquivalence -fuzztime=10s ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzMergeAggPartials -fuzztime=10s ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzStreamedAggregate -fuzztime=10s ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzHashJoinEquivalence -fuzztime=10s ./internal/sqlexec/difftest/
	$(GO) test -run='^$$' -fuzz=FuzzShardRequestBuilds -fuzztime=10s ./internal/cluster/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBlock -fuzztime=10s ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChunk -fuzztime=10s ./internal/vft/
	$(GO) test -run='^$$' -fuzz=FuzzFitKernels -fuzztime=10s ./internal/algos/

# Lint: go vet plus gofmt enforcement (gofmt -l output fails the build).
.PHONY: lint
lint: vet
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The second line type-checks the block codec for a big-endian host (s390x):
# the per-value PLAIN loops it falls back to are never taken on any host we
# run on. Offline — the toolchain carries its own standard library source.
.PHONY: vet
vet:
	$(GO) vet ./...
	GOARCH=s390x $(GO) vet ./internal/colstore

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# Race-check the packages with real shared-state concurrency: the
# telemetry registry, the one TCP transport (wire: listener, pooled clients,
# the shared frame-buffer pool), the vft staging hub (each message decoded at
# arrival into the batch its frame partition keeps) + pooled export
# pipeline, the frame's readers and writers beside it (the ODBC loader fills
# partitions from concurrent connections, Spark tasks read them), the dr
# scheduler, the yarn resource manager, the simulated network, the fault
# injector, the intra-node parallel execution engine (worker pool, cursor
# ranges walked as pool tasks with their in-order hand-off, chunked
# aggregation, parallel IRLS, blocked matrix multiply), the
# planner (plan.Build runs on every peer-side query beside concurrent COPY,
# over the segments' memoized statistics), the
# pooled scoring/splitting paths (models, udf writers, darray fill,
# catalog splitter), and the durability plane (wal group commit, txn MVCC
# snapshots, the vertica commit/checkpoint protocol).
.PHONY: race
race:
	$(GO) test -race ./internal/telemetry/... ./internal/vft/... ./internal/dr/... \
		./internal/yarn/... ./internal/simnet/... ./internal/faults/... \
		./internal/parallel/... ./internal/colstore/... ./internal/plan/... \
		./internal/sqlexec/... \
		./internal/algos/... ./internal/linalg/... ./internal/models/... \
		./internal/udf/... ./internal/darray/... ./internal/catalog/... \
		./internal/server/... ./internal/core/... \
		./internal/wal/... ./internal/txn/... ./internal/vertica/... \
		./internal/cluster/... ./internal/wire/... \
		./internal/odbc/... ./internal/spark/...

# The one performance harness (benchmark/README.md): one fixed-seed run of
# every workload BENCHMARK.json names, at the run length it declares.
.PHONY: bench
bench:
	@set -e; secs=$$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json); \
	for w in $$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([a-z_]*\)".*/\1/p' BENCHMARK.json); do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds $$secs --trace 0; \
	done

# Code size: non-test Go lines (wc -l) per package under internal/, one line
# each, then the total — the count a change that deletes code reports.
.PHONY: loc
loc:
	@for d in $$(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done | awk '{ print; n += $$1 } END { printf "%7d  total\n", n }'

# Paper-figure benchmark series (Figs. 12-20 shapes).
.PHONY: bench-figures
bench-figures:
	$(GO) run ./cmd/vdr-bench -metrics bench-metrics.json

# Chaos suite: the recovery-path tests (fault injection, retransmission,
# dedup, worker failover, session reaping, stalled and failing cursor-range
# tasks of a streamed query, round trips cut short by their context) under
# the race detector. Seeds are fixed inside
# the tests, so failures reproduce exactly.
.PHONY: chaos
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Recover|Injected|Fault|Retr|Abort|Reap|FailWorker|Idempotent|Timeout|Deadline|Silent|Survives|Failover' \
		./internal/faults/... ./internal/vft/... ./internal/dr/... ./internal/yarn/... ./internal/odbc/... \
		./internal/parallel/... ./internal/colstore/... ./internal/sqlexec/... ./internal/models/... \
		./internal/udf/... ./internal/server/... ./internal/wal/... ./internal/vertica/... ./internal/cluster/... \
		./internal/wire/...

# Crash-recovery suite: injected crashes at the WAL append/fsync/checkpoint
# boundaries, torn-tail handling, checkpoint replay, MVCC snapshot isolation
# under concurrent ingest — the kill/replay acceptance tests, under -race.
.PHONY: recover
recover:
	$(GO) test -race -count=1 -run 'Recover|Durab|Crash|WAL|Torn|Checkpoint|Snapshot|Redeploy|GroupCommit' \
		./internal/wal/... ./internal/txn/... ./internal/vertica/... \
		./internal/cluster/... ./internal/models/... \
		./internal/colstore/... ./internal/core/...

# Fuzz smoke: run each fuzz target briefly (Go keeps regression inputs in
# testdata/fuzz, which plain `go test` replays on every run). Raise FUZZTIME
# for a longer exploratory session.
FUZZTIME ?= 10s
.PHONY: fuzz
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseSelect -fuzztime=$(FUZZTIME) ./internal/sqlparse/
	$(GO) test -run='^$$' -fuzz=FuzzEncodingRoundTrip -fuzztime=$(FUZZTIME) ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBlock -fuzztime=$(FUZZTIME) ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedScanEquivalence -fuzztime=$(FUZZTIME) ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedAggregateEquivalence -fuzztime=$(FUZZTIME) ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzMergeAggPartials -fuzztime=$(FUZZTIME) ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzStreamedAggregate -fuzztime=$(FUZZTIME) ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzHashJoinEquivalence -fuzztime=$(FUZZTIME) ./internal/sqlexec/difftest/
	$(GO) test -run='^$$' -fuzz=FuzzShardRequestBuilds -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChunk -fuzztime=$(FUZZTIME) ./internal/vft/
	$(GO) test -run='^$$' -fuzz=FuzzFitKernels -fuzztime=$(FUZZTIME) ./internal/algos/
	$(GO) test -run='^$$' -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzWALRecordStream -fuzztime=$(FUZZTIME) ./internal/wal/
