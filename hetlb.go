package hetlb

import (
	"fmt"

	"hetlb/internal/central"
	"hetlb/internal/core"
	"hetlb/internal/exact"
	"hetlb/internal/gossip"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/shardgossip"
	"hetlb/internal/worksteal"
)

// Cost is a processing time in abstract integer time units.
type Cost = core.Cost

// Infinite marks a job that cannot run on a machine.
const Infinite = core.Infinite

// CostModel exposes the processing-time matrix p[machine][job] of an
// instance; see the New* constructors for the structured special cases.
type CostModel = core.CostModel

// Clustered is a cost model whose machines form two clusters of identical
// machines (the Section VI setting; required by CLB2C and DLB2C).
type Clustered = core.Clustered

// Assignment is a partition of jobs onto machines with O(1) load queries.
type Assignment = core.Assignment

// Dense, Identical, Related, Typed and TwoCluster are the instance kinds.
type (
	Dense      = core.Dense
	Identical  = core.Identical
	Related    = core.Related
	Typed      = core.Typed
	TwoCluster = core.TwoCluster
)

// NewDense builds a fully unrelated instance from an explicit cost matrix
// p[machine][job].
func NewDense(p [][]Cost) (*Dense, error) { return core.NewDense(p) }

// NewIdentical builds an identical-machines instance: m machines, one size
// per job.
func NewIdentical(m int, sizes []Cost) (*Identical, error) { return core.NewIdentical(m, sizes) }

// NewRelated builds a uniformly-related instance with integer speeds.
func NewRelated(speeds []int64, sizes []Cost) (*Related, error) {
	return core.NewRelated(speeds, sizes)
}

// NewTyped builds a typed-jobs instance: p[machine][type] plus each job's
// type.
func NewTyped(p [][]Cost, typeOf []int) (*Typed, error) { return core.NewTyped(p, typeOf) }

// NewTwoCluster builds a two-cluster instance: m1+m2 machines, per-cluster
// job costs.
func NewTwoCluster(m1, m2 int, p0, p1 []Cost) (*TwoCluster, error) {
	return core.NewTwoCluster(m1, m2, p0, p1)
}

// NewAssignment returns an empty assignment over a model.
func NewAssignment(m CostModel) *Assignment { return core.NewAssignment(m) }

// RoundRobin distributes all jobs cyclically — a simple deterministic
// initial distribution.
func RoundRobin(m CostModel) *Assignment { return core.RoundRobin(m) }

// RandomInitial places each job on a uniformly random machine, the
// "arbitrary initial distribution" of the decentralized setting.
func RandomInitial(m CostModel, seed uint64) *Assignment {
	gen := rng.New(seed)
	a := core.NewAssignment(m)
	for j := 0; j < m.NumJobs(); j++ {
		a.Assign(j, gen.Intn(m.NumMachines()))
	}
	return a
}

// LowerBound returns a generic lower bound on the optimal makespan.
func LowerBound(m CostModel) Cost { return core.LowerBound(m) }

// TwoClusterLowerBound returns the fractional pooled-machines lower bound
// for a two-cluster instance.
func TwoClusterLowerBound(c Clustered) float64 { return core.TwoClusterFractionalLB(c) }

// SolveExact computes the optimal makespan by branch and bound; practical
// for small instances only (n ≲ 14). The boolean reports whether optimality
// was proven within the node budget.
func SolveExact(m CostModel, maxNodes int64) (Cost, *Assignment, bool) {
	res := exact.SolveBudget(m, maxNodes)
	return res.Opt, res.Assignment, res.Proven
}

// ListScheduling greedily schedules all jobs on the earliest-completing
// machine (Graham's List Scheduling on identical machines).
func ListScheduling(m CostModel) *Assignment { return central.ListScheduling(m, nil) }

// LPT runs Largest Processing Time first on identical machines
// (4/3-approximation).
func LPT(id *Identical) *Assignment { return central.LPT(id) }

// CLB2C runs the paper's centralized two-cluster 2-approximation
// (Algorithm 5, Theorem 6) over all jobs of the model.
func CLB2C(c Clustered) *Assignment { return central.RunCLB2C(c) }

// LST runs the Lenstra–Shmoys–Tardos LP-rounding 2-approximation for
// general unrelated machines (the centralized state of the art the paper
// cites). It returns the schedule and the LP deadline T*, which is itself a
// lower bound on the optimal makespan. Dense LP: small and medium instances
// only.
func LST(m CostModel) (*Assignment, Cost, error) {
	res, err := central.LST(m)
	if err != nil {
		return nil, 0, err
	}
	return res.Assignment, res.Deadline, nil
}

// RunOptions parameterizes the decentralized protocols.
type RunOptions struct {
	// Seed makes the run reproducible.
	Seed uint64
	// MaxExchanges bounds the number of pairwise balancing operations
	// (required: the protocols may never converge, Proposition 8).
	MaxExchanges int
	// DetectStability stops the run early at a verified stable schedule, on
	// either engine.
	DetectStability bool
	// Shards >= 1 runs the sharded epoch engine: machines are partitioned
	// into that many shards stepped by parallel workers on a per-epoch
	// random perfect matching. AutoShards (-1) also selects the sharded
	// engine but lets it pick the shard count (one per available core,
	// clamped to the machine count). Results are bit-identical for any
	// shard count, so the choice only affects parallelism. The zero
	// default keeps the sequential engine, whose uniform-initiator
	// schedule differs from the sharded engine's matching schedule. Every
	// other option works on both engines, except Faults (sharded only).
	Shards int
	// Metrics, when non-nil, receives the run's counters and histograms
	// (gossip_* for sequential runs, shardgossip_* for sharded ones).
	Metrics *MetricsRegistry
	// Spans, when non-nil, collects the run's causal span trace: one
	// KindRun span plus one step span per exchange (sequential) or one
	// session span per pairwise session (sharded).
	Spans *SpanTrace
	// Timeline, when non-nil, records the convergence trajectory (Cmax,
	// imbalance, cumulative moves): one point per exchange (sequential) or
	// per epoch (sharded).
	Timeline *Timeline
	// Faults, when non-nil and non-zero, arms a deterministic crash/recovery
	// schedule against the run. Sharded runs only (Shards >= 1 or
	// AutoShards): virtual time is the epoch index, a pair touching a down
	// machine is voided for the epoch, and crashed machines lose or freeze
	// their jobs per each Crash's LoseJobs policy. Message-level faults
	// (drop/dup/jitter) are rejected — the epoch engine exchanges no
	// messages; use DLB2CMessagePassing for those. Results stay
	// bit-identical at any shard count.
	Faults *FaultConfig
}

// AutoShards, as RunOptions.Shards, selects the sharded epoch engine with an
// automatically chosen shard count (one shard per available core, clamped to
// the machine count). The choice never affects results, only parallelism.
const AutoShards = -1

// Result is the outcome of a decentralized balancing run.
type Result struct {
	// Assignment is the final schedule. For sequential runs it is the
	// same object that was passed in (mutated in place); sharded runs
	// return a fresh assignment and leave the initial one untouched.
	Assignment *Assignment
	// Makespan is the final Cmax.
	Makespan Cost
	// Exchanges is the number of pairwise balancing operations performed.
	Exchanges int
	// Converged reports whether the final schedule is a verified fixed
	// point of the protocol.
	Converged bool
	// Crashes, Recoveries, JobsLost, JobsRehosted and Voided summarize an
	// armed fault plan's effect on a sharded run (all zero without one):
	// transitions applied, jobs permanently lost / re-hosted on recovery,
	// and sessions voided because a participant was down. Jobs lost to
	// LoseJobs crashes stay unassigned in Assignment (Assignment.Unplaced
	// enumerates them).
	Crashes, Recoveries, JobsLost, JobsRehosted, Voided int
}

// runProtocol drives a protocol on the sequential engine (Shards == 0) or
// the sharded epoch engine (Shards >= 1 or AutoShards).
func runProtocol(p protocol.Protocol, initial *Assignment, opt RunOptions) (Result, error) {
	if opt.MaxExchanges <= 0 {
		return Result{}, fmt.Errorf("hetlb: RunOptions.MaxExchanges must be positive")
	}
	if !initial.Complete() {
		return Result{}, fmt.Errorf("hetlb: initial assignment must place every job")
	}
	if m := initial.Model().NumMachines(); m < 2 {
		return Result{}, fmt.Errorf("hetlb: need at least 2 machines to form pairs, got %d", m)
	}
	if opt.Shards < AutoShards {
		return Result{}, fmt.Errorf("hetlb: RunOptions.Shards = %d; want a positive count, 0 (sequential) or AutoShards", opt.Shards)
	}
	if opt.Shards >= 1 || opt.Shards == AutoShards {
		cfg := shardgossip.Config{
			Seed:     opt.Seed,
			Shards:   opt.Shards,
			Spans:    opt.Spans,
			Timeline: opt.Timeline,
			Faults:   opt.Faults,
		}
		if opt.Shards == AutoShards {
			cfg.Shards = 0 // shardgossip's zero value is its auto heuristic
		}
		if opt.Metrics != nil {
			cfg.Metrics = shardgossip.NewMetrics(opt.Metrics)
		}
		e, err := shardgossip.New(p, initial, cfg)
		if err != nil {
			return Result{}, err
		}
		defer e.Close()
		r := e.Run(opt.MaxExchanges, opt.DetectStability)
		return Result{
			Assignment:   r.Assignment,
			Makespan:     r.FinalMakespan,
			Exchanges:    r.Steps,
			Converged:    r.Converged,
			Crashes:      r.Crashes,
			Recoveries:   r.Recoveries,
			JobsLost:     r.JobsLost,
			JobsRehosted: r.JobsRehosted,
			Voided:       r.Voided,
		}, nil
	}
	if opt.Faults != nil && !opt.Faults.Zero() {
		return Result{}, fmt.Errorf("hetlb: RunOptions.Faults requires the sharded engine (set Shards; the message-passing runtime takes faults via MessagePassingOptions)")
	}
	cfg := gossip.Config{Seed: opt.Seed, Spans: opt.Spans, Timeline: opt.Timeline}
	if opt.Metrics != nil {
		cfg.Metrics = gossip.NewMetrics(opt.Metrics)
	}
	e := gossip.New(p, initial, cfg)
	r := e.Run(opt.MaxExchanges, opt.DetectStability)
	return Result{
		Assignment: initial,
		Makespan:   r.FinalMakespan,
		Exchanges:  r.Steps,
		Converged:  r.Converged,
	}, nil
}

// DLB2C runs the decentralized two-cluster balancer (Algorithm 7) from the
// given initial distribution. If the run converges, the schedule is a
// 2-approximation under the paper's hypothesis that no processing time
// exceeds the optimal makespan (Theorem 7).
func DLB2C(model Clustered, initial *Assignment, opt RunOptions) (Result, error) {
	return runProtocol(protocol.DLB2C{Model: model}, initial, opt)
}

// OJTB runs One Job Type Balancing (Algorithm 3). With a single job type it
// converges to an optimal schedule (Lemma 4).
func OJTB(model CostModel, initial *Assignment, opt RunOptions) (Result, error) {
	return runProtocol(protocol.OJTB{Model: model}, initial, opt)
}

// MJTB runs Multiple Job Type Balancing (Algorithm 4) on a typed instance;
// it converges to a k-approximation with k job types (Theorem 5).
func MJTB(model *Typed, initial *Assignment, opt RunOptions) (Result, error) {
	return runProtocol(protocol.MJTB{Model: model}, initial, opt)
}

// HomogeneousBalance runs the single-cluster pairwise greedy (the dynamics
// analysed by the paper's Markov model, Section VII.A).
func HomogeneousBalance(model CostModel, initial *Assignment, opt RunOptions) (Result, error) {
	return runProtocol(protocol.SameCost{Model: model}, initial, opt)
}

// WorkStealingStats is the outcome of a work-stealing simulation.
type WorkStealingStats = worksteal.Stats

// WorkStealing simulates the classical work-stealing baseline (Algorithm 1)
// from the given initial distribution and returns its statistics. On
// unrelated machines its makespan is unbounded relative to the optimum for
// bad initial distributions (Theorem 1).
func WorkStealing(model CostModel, initial *Assignment, seed uint64) (WorkStealingStats, error) {
	return WorkStealingRun(model, initial, WorkStealingOptions{Seed: seed})
}

// WorkStealingOptions parameterizes WorkStealingRun.
type WorkStealingOptions struct {
	// Seed drives victim selection.
	Seed uint64
	// StealLatency is the virtual time consumed by each victim probe; 0
	// models instantaneous steals (the paper's idealization).
	StealLatency int64
	// StealOne takes one job per steal instead of the back half.
	StealOne bool
	// Metrics, when non-nil, receives the worksteal_* instruments
	// (probes, steals, jobs stolen, per-machine idle time).
	Metrics *MetricsRegistry
	// Spans, when non-nil, collects one KindRun span plus one session span
	// per successful steal (Start = when the thief went idle).
	Spans *SpanTrace
	// Timeline, when non-nil, records one point per steal: remaining jobs
	// as the imbalance proxy, cumulative jobs stolen, cumulative probes.
	Timeline *Timeline
}

// WorkStealingRun is WorkStealing with the full option set.
func WorkStealingRun(model CostModel, initial *Assignment, opt WorkStealingOptions) (WorkStealingStats, error) {
	cfg := worksteal.Config{
		Seed:         opt.Seed,
		StealLatency: opt.StealLatency,
		Spans:        opt.Spans,
		Timeline:     opt.Timeline,
	}
	if opt.StealOne {
		cfg.Policy = worksteal.StealOne
	}
	if opt.Metrics != nil {
		cfg.Metrics = worksteal.NewMetrics(opt.Metrics, model.NumMachines())
	}
	sim, err := worksteal.New(model, initial, cfg)
	if err != nil {
		return WorkStealingStats{}, err
	}
	return sim.Run(), nil
}

// IsStable reports whether no pairwise DLB2C exchange can change the given
// two-cluster schedule (the premise of Theorem 7). It splits every pair of
// machines once on scratch buffers, without copying the schedule: the same
// check the engines run when DetectStability is set.
func IsStable(model Clustered, a *Assignment) bool {
	return protocol.Stable(protocol.DLB2C{Model: model}, a)
}
