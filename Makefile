# Developer entry points. `make check` runs lint, build, test and race
# locally; CI (.github/workflows/ci.yml) runs separate jobs instead: lint,
# test, fuzz, shard-race, bench-smoke, bench-ab (pull requests only: the
# repository benchmark against the merge-base, see README.md "Testing"),
# race-harness, chaos-shard and chaos, several of them through the targets
# below.

GO ?= go

.PHONY: check vet lint lint-stats build test race race-shard fuzz bench bench-smoke chaos chaos-shard

check: lint build test race

vet:
	$(GO) vet ./...

# Tier-1 static analysis: gofmt, go vet, and hetlbvet — the repo's own
# analyzer suite that mechanically enforces the determinism, RNG-discipline,
# noalloc, and stats-safety invariants (DESIGN.md §11) plus the
# interprocedural flow checks (seedflow, phasefreeze; DESIGN.md §16).
# Suppressions are //hetlb: comments with a reason; unused ones fail the
# build.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/hetlbvet ./...

# Per-analyzer finding and suppression counts over the whole tree. Same
# vet-style exit as lint; the counts make it visible where the suppression
# debt lives.
lint-stats:
	$(GO) run ./cmd/hetlbvet -stats ./...

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

# Fuzzes nine targets for 30s each. FuzzStabilityCheck: random small
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
# minimization is capped at 5s too. Then FuzzCLB2C: RunCLB2C on a model
# with its cost vectors and on one that hides them, and CLB2C on random
# machine subsets with shuffled jobs, against the comparator-sort and
# container/heap reference, job for job and with Validate, over 1 to 8
# machines per cluster, up to 64 jobs, and costs free on one or both
# clusters, small, around OrderJobs' exact-image bound (1900-3100) or near
# 2^31; its minimization is capped at 5s. Then FuzzTwoClusterFractionalLB: the
# two-cluster fractional lower bound never above exact.Solve's proven
# optimum, on 1 to 3 machines per cluster and up to 8 jobs with costs in
# [0, 30], so jobs free on one or both clusters and tied ratios are common;
# its minimization is capped at 5s. go test -fuzz takes one target in one
# package per run. The committed seed corpora
# (internal/shardgossip/testdata/fuzz, internal/core/testdata/fuzz,
# internal/explain/testdata/fuzz, internal/protocol/testdata/fuzz,
# internal/central/testdata/fuzz) and the f.Add seeds also run as plain
# tests in `make test`; a failing input found here is written next to them.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzStabilityCheck$$' -fuzztime=30s ./internal/shardgossip/
	$(GO) test -run='^$$' -fuzz='^FuzzShardedFaultPlan$$' -fuzztime=30s ./internal/shardgossip/
	$(GO) test -run='^$$' -fuzz='^FuzzJobOrder$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzReadSpans$$' -fuzztime=30s ./internal/explain/
	$(GO) test -run='^$$' -fuzz='^FuzzReadTimeline$$' -fuzztime=30s ./internal/explain/
	$(GO) test -run='^$$' -fuzz='^FuzzStep$$' -fuzztime=30s ./internal/protocol/
	$(GO) test -run='^$$' -fuzz='^FuzzMinLoads$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/central/
	$(GO) test -run='^$$' -fuzz='^FuzzCLB2C$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/central/
	$(GO) test -run='^$$' -fuzz='^FuzzTwoClusterFractionalLB$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/exact/

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or panic without paying for real measurement. CI runs this.
# -short lets the 100k/10M scale benchmark opt out; its CI-sized twin
# (BenchmarkShardedStepScale) still runs and covers the same code path.
bench-smoke:
	$(GO) test -run='^$$' -short -bench=. -benchtime=1x -benchmem ./...

# The sharded engine's coordinator/worker handoff under the race detector
# at pinned low parallelism: GOMAXPROCS 1 and 2 force different
# interleavings of the session fan-out, the chunk claims and the barrier
# (and of the coordinator's matching draw against workers still leaving the
# previous barrier) than the native run in `race`. CI runs this as a matrix
# leg.
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
# the recovery re-check and degraded-observability regressions. Low parallelism
# forces the coordinator's fault transitions and matching draw against the
# session fan-out in orders the native race leg never schedules. The
# -timeout is the watchdog: a fault transition that wedges an epoch barrier
# shows up as a hang, not a pass. CI runs this as its own matrix job.
chaos-shard:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'Chaos|Fault|Crash' -timeout 10m \
		./internal/shardgossip/... ./internal/experiments/...
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Chaos|Fault|Crash' -timeout 10m \
		./internal/shardgossip/... ./internal/experiments/...
