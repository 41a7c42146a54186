# Developer entry points. `make check` runs lint, build, test and race
# locally; CI (.github/workflows/ci.yml) runs separate jobs instead: lint,
# test, fuzz, shard-race, bench-smoke, race-harness, chaos-shard and chaos,
# several of them through the targets below.

GO ?= go

.PHONY: check vet lint lint-stats build test race race-shard fuzz bench bench-smoke overhead-guard bench-scale chaos chaos-shard

check: lint build test race

vet:
	$(GO) vet ./...

# Tier-1 static analysis: gofmt, go vet, and hetlbvet — the repo's own
# analyzer suite that mechanically enforces the determinism, RNG-discipline,
# noalloc, and stats-safety invariants (DESIGN.md §11) plus the
# interprocedural flow checks (seedflow, lockshape, phasefreeze; DESIGN.md
# §16). Suppressions are //hetlb: comments with a reason; unused ones fail
# the build.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/hetlbvet -flow ./...

# Per-analyzer finding and suppression counts over the whole tree. Same
# vet-style exit as lint; the counts make it visible where the suppression
# debt lives.
lint-stats:
	$(GO) run ./cmd/hetlbvet -flow -stats ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Races the packages with real cross-goroutine traffic: the sharded engine
# (shardgossip), the observability layer (obs) and the replication harness.
# The sequential engine (gossip) has no goroutines of its own; it rides
# along because it records into the same obs instruments. The experiments
# package rides along because its determinism tests drive every figure's
# scaled-down driver through the harness at Parallelism 4 and GOMAXPROCS.
# The analysis suite rides along too: its loader caches packages behind a
# plain map, so racing the tests documents that each test process loads
# sequentially. core and central race the first calls of a two-cluster
# model's cached ratio order, which engines, harness workers and CLB2C
# share, and core those of a typed model's cached type order, which the
# engines' MJTB job lists share.
race:
	$(GO) test -race ./internal/obs/... ./internal/gossip/... ./internal/shardgossip/... \
		./internal/harness/... ./internal/experiments/... ./internal/analysis/... \
		./internal/core/... ./internal/central/...

# Fuzzes seven targets for 30s each. FuzzStabilityCheck: random small
# instances, epoch counts and crash plans, on both engines, where every
# check must answer as a full scan from pair (0,1) does. FuzzShardedFaultPlan:
# arbitrary crash plans (machines out of range, overlapping intervals,
# recoveries not after their crash, lost or frozen jobs); faults.Validate
# rejects the plan, and so must the sharded engine, or short MJTB and DLB2C
# runs under it conserve every job after each epoch and give identical
# placements, loads, moves, lost ledgers and span traces at S = 1, 2, 3.
# Then FuzzJobOrder: core.OrderJobs in the ratio and size orders against a
# comparator sort, over costs that are free, tie, share a float32 image or
# pass 2^31, on both sides of the radix cut-over; a new input's minimization
# is capped at 5s so it leaves the fuzzer time to run. Then FuzzReadSpans
# and FuzzReadTimeline: arbitrary bytes to the `hetlb explain` readers,
# which must return an error or data that Analyze and the text report
# handle without panicking. Then FuzzStep: protocol.Step, the pair step of
# every engine, for all seven protocols and an embedding wrapper on small
# instances with free jobs and ties, on lists in the protocol's list order
# or in job order, against a multiset oracle (sides strictly increasing and
# pooling to the old union, arrivals a naive set difference, loads each
# side's costs summed afresh, the step equal to a merge and a split on a
# fresh scratch unless a MinMove protocol transfers, MJTB's walk equal to
# BasicGreedy per type, a dirty scratch equal to a fresh one, a second step
# moving nothing). Then FuzzMinLoads: the loser tree that finds CLB2C's and
# online LS's least-loaded machine, over 1 to 300 machines listed in order,
# as a sorted subset or shuffled, start loads that tie or reach 2^62, and
# raises that include 0, against a linear scan after every step; its
# minimization is capped at 5s too. go test -fuzz takes one target in one
# package per run. The committed seed corpora
# (internal/shardgossip/testdata/fuzz, internal/core/testdata/fuzz,
# internal/explain/testdata/fuzz, internal/protocol/testdata/fuzz,
# internal/central/testdata/fuzz) also run as plain tests in `make test`; a
# failing input found here is written next to them.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzStabilityCheck$$' -fuzztime=30s ./internal/shardgossip/
	$(GO) test -run='^$$' -fuzz='^FuzzShardedFaultPlan$$' -fuzztime=30s ./internal/shardgossip/
	$(GO) test -run='^$$' -fuzz='^FuzzJobOrder$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzReadSpans$$' -fuzztime=30s ./internal/explain/
	$(GO) test -run='^$$' -fuzz='^FuzzReadTimeline$$' -fuzztime=30s ./internal/explain/
	$(GO) test -run='^$$' -fuzz='^FuzzStep$$' -fuzztime=30s ./internal/protocol/
	$(GO) test -run='^$$' -fuzz='^FuzzMinLoads$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/central/

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or panic without paying for real measurement. CI runs this.
# -short lets the 100k/10M scale benchmark opt out; its CI-sized twin
# (BenchmarkShardedStepScale) still runs and covers the same code path.
bench-smoke:
	$(GO) test -run='^$$' -short -bench=. -benchtime=1x -benchmem ./...

# Observability must be free when it is off: the tracing-disabled step path
# may not drift more than TOLERANCE above BENCH_3.json's recorded 'after'
# column, and may never allocate. BENCH_6.json records what tracing costs
# when it is on. The default 2% assumes the baseline's machine class; on
# other hardware run `make overhead-guard TOLERANCE=0.25` or re-record.
TOLERANCE ?= 0.02
overhead-guard:
	$(GO) test -run='^$$' -bench='^BenchmarkEngineStep$$' -benchmem -benchtime=300ms \
		./internal/gossip/ | tee /tmp/benchguard-step.txt
	$(GO) run ./cmd/benchguard -baseline BENCH_3.json -tolerance $(TOLERANCE) \
		-in /tmp/benchguard-step.txt

# The sharded engine's CI-sized scale guard, two gates: (1) the live
# BenchmarkShardedStepScale run (m=2048, n=16384 — same code path as the
# 100k/10M headline run) may not drift more than SCALE_TOLERANCE above
# BENCH_8.json's 'guard' column; (2) the recorded BENCH_8.json guard column
# itself may not regress more than COMPARE_TOLERANCE against BENCH_7.json's
# (benchguard -against; this pins the PR-8 epoch-throughput claim — after
# the reduction/pipeline/delta work, re-recording slower numbers fails the
# build). Tolerances are wide because epoch cost depends on how balanced the
# schedule currently is, which makes these benchmarks noisier than the
# per-step guards. The full 100k/10M curve is re-recorded with:
#   go test -run='^$' -bench='BenchmarkShardedStep$' -benchmem -benchtime=3x \
#       -timeout 50m ./internal/shardgossip/
SCALE_TOLERANCE ?= 0.50
COMPARE_TOLERANCE ?= 0.25
FAULT_TOLERANCE ?= 0.05
bench-scale:
	$(GO) test -run='^$$' -bench='BenchmarkShardedStepScale' -benchmem -benchtime=300ms \
		./internal/shardgossip/ | tee /tmp/benchguard-scale.txt
	$(GO) run ./cmd/benchguard -baseline BENCH_8.json -bench BenchmarkShardedStepScale \
		-column guard -tolerance $(SCALE_TOLERANCE) -in /tmp/benchguard-scale.txt
	$(GO) run ./cmd/benchguard -baseline BENCH_7.json -against BENCH_8.json \
		-column guard -tolerance $(COMPARE_TOLERANCE)
	$(GO) run ./cmd/benchguard -baseline BENCH_8.json -against BENCH_9.json \
		-column guard -tolerance $(FAULT_TOLERANCE)

# The sharded engine's worker/scheduler handoff under the race detector at
# pinned low parallelism: GOMAXPROCS 1 and 2 force different interleavings
# of the pipelined draw, the session fan-out and the barrier than the
# native run in `race`. CI runs this as a matrix leg.
race-shard:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/shardgossip/...
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/shardgossip/...

# The chaos property suite under the race detector: 100+ seeded random
# fault plans (loss, duplication, crashes) must all drain without deadlock
# and conserve every job. The -timeout is the watchdog — a wedged handshake
# shows up as a hang, not a silent pass. The suite runs twice: at the
# host's native GOMAXPROCS and pinned to 2, because scheduler interleavings
# (and therefore the bugs the detector can observe) differ between the two.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Crash|Lossy' -timeout 5m \
		./internal/netsim/... ./internal/faults/... ./internal/experiments/...
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Chaos|Fault|Crash|Lossy' -timeout 5m \
		./internal/netsim/... ./internal/faults/... ./internal/experiments/...

# The sharded engine's chaos suite under the race detector at pinned
# GOMAXPROCS 1 and 2: 128 random crash/loss plans, each run at S in
# {1, 2, 4}, asserted bit-identical with job conservation after drain, plus
# the latch-reopen and degraded-observability regressions. Low parallelism
# forces the coordinator's fault transitions against the pipelined draw and
# the session fan-out in orders the native race leg never schedules. The
# -timeout is the watchdog: a fault transition that wedges an epoch barrier
# shows up as a hang, not a pass. CI runs this as its own matrix job.
chaos-shard:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'Chaos|Fault|Crash|Latch' -timeout 10m \
		./internal/shardgossip/... ./internal/experiments/...
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Chaos|Fault|Crash|Latch' -timeout 10m \
		./internal/shardgossip/... ./internal/experiments/...
