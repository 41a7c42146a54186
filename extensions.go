package hetlb

import (
	"hetlb/internal/core"
	"hetlb/internal/dynamic"
	"hetlb/internal/faults"
	"hetlb/internal/lp"
	"hetlb/internal/netsim"
	"hetlb/internal/protocol"
)

// This file exposes the extensions the paper names as future work: the
// generalization of DLB2C to more than two clusters, and the LP-based
// fractional lower bound (the Lawler–Labetoulle style relaxation the paper
// cites) used to judge schedule quality when no exact optimum is available.

// KCluster is an instance with k ≥ 1 clusters of identical machines.
type KCluster = core.KCluster

// NewKCluster builds a k-cluster instance: sizes[c] machines in cluster c,
// p[c][j] the cost of job j on any machine of cluster c. Machines are
// numbered cluster by cluster.
func NewKCluster(sizes []int, p [][]Cost) (*KCluster, error) {
	return core.NewKCluster(sizes, p)
}

// DLBKC runs the k-cluster generalization of DLB2C: same-cluster pairs use
// a size-descending greedy, cross-cluster pairs run CLB2C on the
// two-cluster restriction. No approximation ratio is proven for k > 2 (the
// paper's open problem); compare against FractionalLowerBound to judge
// quality.
func DLBKC(model *KCluster, initial *Assignment, opt RunOptions) (Result, error) {
	return runProtocol(protocol.DLBKC{Model: model}, initial, opt)
}

// FractionalLowerBound solves the fractional-makespan LP for a k-cluster
// instance: jobs may split across clusters and cluster work spreads
// perfectly within a cluster. The result lower-bounds every integral
// schedule.
func FractionalLowerBound(model *KCluster) (float64, error) {
	return lp.FractionalMakespanKCluster(model)
}

// FractionalLowerBoundDense is the machine-granularity variant for
// arbitrary (small to medium) unrelated instances.
func FractionalLowerBoundDense(model CostModel) (float64, error) {
	return lp.FractionalMakespanDense(model)
}

// DynamicOptions parameterizes RunDynamic.
type DynamicOptions struct {
	// Seed makes the run reproducible.
	Seed uint64
	// BalanceEvery is the virtual-time period between balancing events
	// (one random pair rebalances its pending jobs per event); 0 disables
	// balancing.
	BalanceEvery int64
	// MeanInterarrival > 0 spreads job arrivals exponentially onto random
	// machines; 0 starts all jobs at time zero from Initial.
	MeanInterarrival float64
	// Initial is required when MeanInterarrival == 0.
	Initial *Assignment
}

// DynamicResult reports a RunDynamic execution.
type DynamicResult struct {
	// Makespan is the completion time of the last job.
	Makespan int64
	// MeanFlow and MaxFlow summarize completion − arrival over jobs.
	MeanFlow float64
	MaxFlow  int64
	// JobsMoved counts migrations performed by the balancer.
	JobsMoved int
}

// RunDynamic couples execution with periodic balancing — the operational
// mode Section IV of the paper advocates ("an a priori load balancer can
// naturally take into account the dynamicity of the computing system"):
// machines run their queues while the protocol periodically rebalances
// pending jobs (accounting for in-progress work). Model kinds map to
// protocols automatically: Clustered → DLB2C, *KCluster → DLBKC,
// *Typed → MJTB, anything else → the same-cost kernel.
func RunDynamic(model CostModel, opt DynamicOptions) (DynamicResult, error) {
	sim, err := dynamic.New(model, protocolFor(model), dynamic.Config{
		Seed:             opt.Seed,
		BalanceEvery:     opt.BalanceEvery,
		MeanInterarrival: opt.MeanInterarrival,
		Initial:          opt.Initial,
	})
	if err != nil {
		return DynamicResult{}, err
	}
	res := sim.Run()
	return DynamicResult{
		Makespan:  res.Makespan,
		MeanFlow:  res.MeanFlow,
		MaxFlow:   res.MaxFlow,
		JobsMoved: res.JobsMoved,
	}, nil
}

// protocolFor picks the natural protocol for a model kind.
func protocolFor(model CostModel) protocol.Protocol {
	switch m := model.(type) {
	case *KCluster:
		return protocol.DLBKC{Model: m}
	case Clustered:
		return protocol.DLB2C{Model: m}
	case *Typed:
		return protocol.MJTB{Model: m}
	default:
		return protocol.SameCost{Model: model}
	}
}

// FaultConfig is a deterministic fault-injection plan for the
// message-passing runtime: per-link message drop probability, duplication,
// bounded latency jitter, and a machine crash/recovery schedule. The same
// options seed always yields the same fault schedule.
type FaultConfig = faults.Config

// Crash is one scheduled machine failure of a FaultConfig.
type Crash = faults.Crash

// LostJob is one entry of a run's lost-jobs ledger: the job was on the
// machine when it crashed under a plan that loses jobs.
type LostJob = netsim.LostJob

// RandomCrashes generates a valid random crash schedule (a pure function
// of its arguments): count crashes at uniform times in [1, horizon] on
// uniform machines, each down for about meanDown time units and losing its
// jobs with probability loseProb. Overlapping candidates are discarded.
func RandomCrashes(seed uint64, machines int, horizon int64, count int, meanDown int64, loseProb float64) []Crash {
	return faults.RandomCrashes(seed, machines, horizon, count, meanDown, loseProb)
}

// MessagePassingOptions parameterizes DLB2CMessagePassing.
type MessagePassingOptions struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Latency is the one-way message delay in virtual time units (≥ 1).
	Latency int64
	// Period is the mean time between balancing attempts per machine.
	Period int64
	// Horizon is the virtual-time budget.
	Horizon int64
	// Faults, when non-nil, injects the given faults; the handshake then
	// rides session ids, timeout leases and retransmission so no loss,
	// duplicate or crash can wedge a machine or duplicate a job. Nil runs
	// the perfect network.
	Faults *FaultConfig
	// Metrics, when non-nil, receives the netsim_* instruments (sent/
	// delivered message counts by kind, fault and retransmission counters,
	// latency/handshake/retry histograms).
	Metrics *MetricsRegistry
	// Spans, when non-nil, collects the causal span trace: one session
	// span per balancing handshake (each side closes its half, Lamport
	// clocks order the closes) and fault point records — drops,
	// retransmissions, timeouts, crashes — parented to the session that
	// suffered them. This is the input of `hetlb explain`'s fault
	// attribution.
	Spans *SpanTrace
	// Timeline, when non-nil, records the convergence trajectory on the
	// virtual clock: Cmax, imbalance, cumulative jobs moved and messages
	// sent, one point per makespan sample.
	Timeline *Timeline
}

// MessagePassingResult reports a DLB2CMessagePassing run.
type MessagePassingResult struct {
	// Assignment is the final placement. Jobs lost to crashes stay
	// unassigned.
	Assignment *Assignment
	// Makespan is its Cmax.
	Makespan Cost
	// Sessions, Rejections and Messages count protocol activity: on a
	// fault-free network each completed balancing handshake costs three
	// delivered messages and each rejected request two, and Messages ==
	// Sent. Messages counts deliveries.
	Sessions, Rejections, Messages int
	// Sent counts transmissions (retransmissions included); Dropped,
	// Timeouts and Retransmissions summarize degradation under faults.
	Sent, Dropped, Timeouts, Retransmissions int
	// Crashes and Recoveries count machine churn; Lost is the ledger of
	// jobs destroyed by crashes.
	Crashes, Recoveries int
	Lost                []LostJob
}

// DLB2CMessagePassing runs DLB2C with no shared state at all: machines are
// independent actors exchanging REQUEST/OFFER/COMMIT messages over a
// simulated network with latency — the paper's literal system model
// ("the machines do not share memory"). Use it to study how communication
// delay stretches convergence; for plain simulations prefer DLB2C. As
// DLB2C, it rejects a model that is not two clusters (see Clustered).
func DLB2CMessagePassing(model Clustered, initial *Assignment, opt MessagePassingOptions) (MessagePassingResult, error) {
	if _, _, err := core.CheckTwoClusters(model); err != nil {
		return MessagePassingResult{}, err
	}
	cfg := netsim.Config{
		Seed:     opt.Seed,
		Latency:  opt.Latency,
		Period:   opt.Period,
		Horizon:  opt.Horizon,
		Faults:   opt.Faults,
		Spans:    opt.Spans,
		Timeline: opt.Timeline,
	}
	if opt.Metrics != nil {
		cfg.Metrics = netsim.NewMetrics(opt.Metrics)
	}
	sim, err := netsim.New(model, protocol.DLB2C{Model: model}, initial, cfg)
	if err != nil {
		return MessagePassingResult{}, err
	}
	st := sim.Run()
	if err := sim.ValidateConservation(); err != nil {
		return MessagePassingResult{}, err
	}
	a, err := sim.Placement()
	if err != nil {
		return MessagePassingResult{}, err
	}
	return MessagePassingResult{
		Assignment:      a,
		Makespan:        a.Makespan(),
		Sessions:        st.Sessions,
		Rejections:      st.Rejections,
		Messages:        st.Delivered,
		Sent:            st.Sent,
		Dropped:         st.Dropped,
		Timeouts:        st.Timeouts,
		Retransmissions: st.Retransmissions,
		Crashes:         st.Crashes,
		Recoveries:      st.Recoveries,
		Lost:            st.Lost,
	}, nil
}
