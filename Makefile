GO ?= go

# Tier-1 verify (referenced from ROADMAP.md): everything must build, every
# test must pass — the root package's three guards among them:
# TestNoContextTwins fails when any package declares X beside
# XContext/XCtx on one receiver, TestEveryExportHasACaller when an exported
# function of internal/ or the root package has no caller outside tests and
# no allowlisted reason, and TestDesignNamesExist when DESIGN.md cites a Go
# name the code lacks —
# the tree must be lint-clean (the block codec for a big-endian host too: its
# PLAIN fallback compiles nowhere else), the bounded differential suites
# (compressed execution, single-table, hash join, streamed UDTF) must agree
# bitwise, and the fifteen fuzz-smoke targets (parser, statement
# immutability under binding and planning, four equivalence targets,
# shard-partial import, broadcast-build decode, the peer ops' binary
# payloads, serving frame decode, frame header codec, block decode, transfer message decode, the IRLS and Lloyd
# kernels against their row-at-a-time references, index probes against a
# filtered scan) get a short run so the harness runs on every pass.
#
# Targets: check (= lint build test race difftest-short fuzz-smoke), vet,
# bench (benchmark/run.sh over the BENCHMARK.json workloads),
# bench-placement, bench-point (the point read end to end, then statement
# preparation and the index probe alone), bench-scan (the block parse paths:
# BenchmarkDecodeDelta, BenchmarkDecodeBlock, BenchmarkMatchCompressed),
# bench-transfer, bench-keys, bench-recover (a durable node's reopen: the
# checkpoint image, then per-node redo of 700 logged COPYs), bench-copy (the
# same node's durable 2,048-row COPYs, one after another), bench-figures,
# chaos (the recovery paths, a
# clustered node's front door under overload and QueryTimeout, and a routed
# read whose peer dies between its request and its reply, among them),
# recover, fuzz, loc.
.PHONY: check
check: lint build test race difftest-short fuzz-smoke

# Bounded runs of the differential suites (the full sweeps run under plain
# `go test`; this re-runs the bounded variants with a fresh binary so `make
# check` exercises the flag path too): the encoding-aware compressed suite
# and the single-table suite over indexed tables, both against the
# row-serial reference, the hash-join suite against the nested-loop
# reference, the streamed-UDTF leg (PARTITION BEST block ranges against
# a read-everything, row-at-a-time reference), and the single-table suite
# prepared: its comparison literals as ? arguments into a generic plan.
.PHONY: difftest-short
difftest-short:
	$(GO) test -count=1 \
		-run='TestCompressedDifferentialAdversarial|TestDifferentialEngineVsReference|TestDifferentialJoinVsReference|TestDifferentialUDTFStream|TestDifferentialPreparedVsReference' \
		./internal/sqlexec/difftest/ -difftest.short

# Short fuzz smoke: the compressed-execution, hash-join and streamed-walker
# equivalence targets (the last holds the pipelined scan/probe/aggregate to
# the materializing walk it replaced, bit for bit, over fuzz-shaped tables),
# the SQL parser (the planner consumes whatever the parser yields,
# so parse robustness is tier-1), the statement a cached template is (binding
# and planning leave every parsed SELECT as it was), the router's import of
# shard partials, the
# peer's decode of a join's broadcast build tables, the cl.* payload and
# reply decoders (any bytes decode without panicking, a decoded payload
# re-encodes to itself), the serving frame
# decoder on both ends of a connection (internal/wire's codec, driven
# through the server's listener), the binary frame header on its own (any
# bytes decode without panicking, a decoded header re-encodes to itself),
# the block decoder and the transfer
# hub's decode of a message, a run of chunks (bytes off a socket, all five),
# the fit kernels bitwise against the row loops they replaced, and the
# secondary index's probes (bulk-built, insert-built and decoded trees)
# against a filtered scan; enough to replay each corpus and explore a little.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseSelect -fuzztime=10s ./internal/sqlparse/
	$(GO) test -run='^$$' -fuzz=FuzzRewriteLeavesInput -fuzztime=10s ./internal/plan/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedScanEquivalence -fuzztime=10s ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedAggregateEquivalence -fuzztime=10s ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzMergeAggPartials -fuzztime=10s ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzStreamedAggregate -fuzztime=10s ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzHashJoinEquivalence -fuzztime=10s ./internal/sqlexec/difftest/
	$(GO) test -run='^$$' -fuzz=FuzzShardRequestBuilds -fuzztime=10s ./internal/cluster/
	$(GO) test -run='^$$' -fuzz=FuzzPeerPayloads -fuzztime=10s ./internal/cluster/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzHeader -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBlock -fuzztime=10s ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChunk -fuzztime=10s ./internal/vft/
	$(GO) test -run='^$$' -fuzz=FuzzFitKernels -fuzztime=10s ./internal/algos/
	$(GO) test -run='^$$' -fuzz=FuzzIndexLookup -fuzztime=10s ./internal/colstore/index/

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
# arrival into the batch its frame partition keeps) + the export instances
# that fill it from pooled buffers, the frame's readers and writers beside it (the ODBC loader fills
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
# each, then their total; then the root package (.) and cmd/ (all its
# commands), a line each, and the total over all three — the counts a change
# that deletes code reports.
.PHONY: loc
loc:
	@{ for d in $$(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done | awk '{ print; n += $$1 } END { printf "%7d  total\n", n }'; \
	printf '%7d  .\n' $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%7d  cmd\n' $$(find cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); } | \
	awk '{ print } $$2 == "total" || $$2 == "." || $$2 == "cmd" { n += $$1 } END { printf "%7d  total with . and cmd\n", n }'

# Code placement of the benchmark's host kernel: builds ./benchmark as
# benchmark/run.sh does (its build directory, cache and flags) and prints
# main.(*hostKernel).sample's address mod 64. The kernel runs faster at 32
# than at 0, which rescales every scaled metric: compare both binaries of a
# paired parent/child run.
.PHONY: bench-placement
bench-placement:
	@set -e; b=.bench_build; mkdir -p $$b/gocache $$b/gotmp $$b/config; \
	export GOCACHE=$$(cd $$b/gocache && pwd) GOTMPDIR=$$(cd $$b/gotmp && pwd) XDG_CONFIG_HOME=$$(cd $$b/config && pwd); \
	$(GO) build -o $$b/benchmark ./benchmark; \
	addr=$$($(GO) tool nm $$b/benchmark | awk '$$3 == "main.(*hostKernel).sample" { print $$1 }'); \
	test -n "$$addr" || { echo "bench-placement: no main.(*hostKernel).sample in $$b/benchmark" >&2; exit 1; }; \
	echo "main.(*hostKernel).sample at 0x$$addr, mod 64 = $$((0x$$addr % 64))"

# The benchmark's point read (`SELECT x0, x1 FROM events WHERE k = ?`) through
# a serving-protocol client, on node 0 of a 3-peer cluster (3 shards x 2
# replicas) and on one server over the same rows: the routed/single ratio and
# each side's allocations in one run. Both pass the front door's admission,
# plan cache and statement statistics in the node's Server; the routed read
# then goes through the router, which sends shard 1's read to node 1 before
# it reads shards 0 and 2 in process, each through the shard gate, and only
# then reads node 1's reply. Every execution after the first runs the cached
# generic plan (the front door's, each shard's) bound to its argument.
# BenchmarkRoutedAgg is the wide read on the same shape: the benchmark's
# agg_grp statement over 160k rows, node 0's two local shards side by side.
# Then statement preparation alone, for the benchmark's point, score and
# read statements: BindSelect on a cached template and plan.Build (what a
# custom plan costs), and cached/<stmt>, a cache lookup, Plan.Fits and
# Plan.Bind (what a generic plan costs). Then the read's index probe alone:
# an equality and a 256-key range over one segment's 62,500 keys, bulk-built and
# insert-built.
.PHONY: bench-point
bench-point:
	$(GO) test -run='^$$' -bench='BenchmarkRoutedPoint|BenchmarkSinglePoint|BenchmarkRoutedAgg' -benchtime=3s -benchmem ./internal/cluster/
	$(GO) test -run='^$$' -bench='BenchmarkBindPlan' -benchmem ./internal/plan/
	$(GO) test -run='^$$' -bench='BenchmarkLookup' -benchtime=3s -benchmem ./internal/colstore/index/

# The scan's decode: one DELTA block of 4096 rows at 1-, 2- and 3-byte
# deltas; PLAIN INTEGER, FLOAT and VARCHAR, RLE and DICT blocks of 4096 rows,
# each decoded whole and one row in 64; an equality matched on the RLE and
# DICT blocks' encoded form; then the benchmark's read, score and join
# statements on serve_single's 4-node deployment, where every INTEGER column
# they read is DELTA encoded.
.PHONY: bench-scan
bench-scan:
	$(GO) test -run='^$$' -bench='BenchmarkDecodeDelta|BenchmarkDecodeBlock|BenchmarkMatchCompressed' -benchmem ./internal/colstore/
	$(GO) test -run='^$$' -bench='BenchmarkReadSQL|BenchmarkScoreSQL|BenchmarkJoinSQL' -benchmem ./internal/core/

# The transfer path and the task dispatch under it: the in-process and TCP
# loads (BenchmarkLoad's psize of 2048 gives each export instance a few
# messages), paper_pipeline's transfer phase (500k rows x 9 FLOAT columns,
# 4 nodes to 4 workers), and one no-op task through Cluster.Run (the
# benchmark's dr.dispatch_us probe).
.PHONY: bench-transfer
bench-transfer:
	$(GO) test -run='^$$' -bench='BenchmarkLoad$$|BenchmarkLoadTCP' -benchtime=200x -benchmem ./internal/vft/
	$(GO) test -run='^$$' -bench='BenchmarkTransfer9' -benchtime=20x -benchmem ./internal/core/
	$(GO) test -run='^$$' -bench='BenchmarkDispatch' -benchmem ./internal/dr/

# Group and join keys: GROUP BY over INTEGER keys a dense span covers (grp,
# 64 values; dim_id, 10k values at about 2.4 slots a row), over unique keys
# that fall back to the hash (id), and the hash join over dim.id; then the
# benchmark's read and join statements on serve_single's 4-node deployment.
.PHONY: bench-keys
bench-keys:
	$(GO) test -run='^$$' -bench='BenchmarkGroupByInt$$|BenchmarkGroupByWhere$$|BenchmarkGroupByWideInt|BenchmarkGroupByUniqueInt|BenchmarkHashJoinAgg' -benchmem ./internal/sqlexec/
	$(GO) test -run='^$$' -bench='BenchmarkReadSQL|BenchmarkJoinSQL' -benchmem ./internal/core/

# Recovery: a durable 4-node database shaped like ingest_durable's node — a
# checkpointed 300k-row events_in, then 700 COPYs of 2,048 rows in the log —
# reopened; an op is one Open (the image load and the per-node redo), its
# MB/s the log it replays.
.PHONY: bench-recover
bench-recover:
	$(GO) test -run='^$$' -bench='BenchmarkRecover' -benchtime=10x -benchmem ./internal/vertica/

# Durable COPY: the same node takes 2,048-row COPYs one after another, as the
# benchmark's client sends them; an op is one Load (split, record encode,
# WAL append, the build while the record syncs, the publish), and
# commit-us/op is its mean wal_commit_seconds.
.PHONY: bench-copy
bench-copy:
	$(GO) test -run='^$$' -bench='BenchmarkDurableCopy' -benchtime=2000x -benchmem ./internal/vertica/

# Paper-figure benchmark series (Figs. 12-20 shapes).
.PHONY: bench-figures
bench-figures:
	$(GO) run ./cmd/vdr-bench -metrics bench-metrics.json

# Chaos suite: the recovery-path tests (fault injection, retransmission,
# dedup, worker failover, stalled and failing cursor-range
# tasks of a streamed query, round trips cut short by their context, routed
# reads through one-slot front doors and a routed statement past its
# QueryTimeout) under the race detector. Seeds are fixed inside
# the tests, so failures reproduce exactly.
.PHONY: chaos
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Recover|Injected|Fault|Retr|Abort|FailWorker|Idempotent|Timeout|Deadline|Silent|Survives|Failover|FrontDoor' \
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
	$(GO) test -run='^$$' -fuzz=FuzzRewriteLeavesInput -fuzztime=$(FUZZTIME) ./internal/plan/
	$(GO) test -run='^$$' -fuzz=FuzzEncodingRoundTrip -fuzztime=$(FUZZTIME) ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBlock -fuzztime=$(FUZZTIME) ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedScanEquivalence -fuzztime=$(FUZZTIME) ./internal/colstore/
	$(GO) test -run='^$$' -fuzz=FuzzCompressedAggregateEquivalence -fuzztime=$(FUZZTIME) ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzMergeAggPartials -fuzztime=$(FUZZTIME) ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzStreamedAggregate -fuzztime=$(FUZZTIME) ./internal/sqlexec/
	$(GO) test -run='^$$' -fuzz=FuzzHashJoinEquivalence -fuzztime=$(FUZZTIME) ./internal/sqlexec/difftest/
	$(GO) test -run='^$$' -fuzz=FuzzShardRequestBuilds -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzHeader -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChunk -fuzztime=$(FUZZTIME) ./internal/vft/
	$(GO) test -run='^$$' -fuzz=FuzzFitKernels -fuzztime=$(FUZZTIME) ./internal/algos/
	$(GO) test -run='^$$' -fuzz=FuzzIndexLookup -fuzztime=$(FUZZTIME) ./internal/colstore/index/
	$(GO) test -run='^$$' -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzWALRecordStream -fuzztime=$(FUZZTIME) ./internal/wal/
