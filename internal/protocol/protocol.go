// Package protocol defines the paper's decentralized balancing protocols as
// deterministic pairwise step functions:
//
//   - OJTB (Algorithm 3): One Job Type Balancing — BasicGreedy per pair;
//     converges to an optimal distribution when there is a single job type
//     (Lemma 4).
//   - MJTB (Algorithm 4): Multiple Job Type Balancing — OJTB applied
//     independently per job type; converges to a k-approximation
//     (Theorem 5).
//   - DLB2C (Algorithm 7): Decentralized Load Balancing for Two Clusters —
//     Greedy Load Balancing within a cluster, pairwise CLB2C across
//     clusters; any stable schedule is a 2-approximation (Theorem 7), but
//     the protocol may never stabilize (Proposition 8).
//
// A protocol is its pair step in two forms that share the kernels in
// internal/pairwise. SplitScratch partitions a pooled job set between two
// machines; BalanceSides steps from the pair's two current job lists. Every
// engine steps on sorted per-machine job lists: the sequential engine runs
// BalanceSides, the sharded and message-passing engines merge the two lists
// and run SplitScratch. ListOrder names the order the engines keep the
// lists in: DLB2C's is its model's ratio order, so its kernels never sort.
// Balance applies one BalanceSides step to a core.Assignment for the
// exhaustive state-space exploration of Proposition 8. EquationThree and
// ClusterImbalance check the two certificates Theorem 7 reads off a stable
// DLB2C schedule, in O(n).
package protocol

import (
	"strconv"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// Protocol is a decentralized balancing rule. SplitScratch must be a
// deterministic function of (i, j, jobs) so that stability is well defined
// and so that the sequential, sharded and message-passing engines behave
// identically.
//
// Locality contract: a split reads nothing but i, j and the pooled jobs (and
// the immutable cost model), never the placement of other machines or any
// state left by earlier calls. BalanceSides likewise reads only i, j and the
// pair's two sides. So whether a pair's step would change the placement
// depends on the pair and its two job lists alone, and a pair verified
// stable stays stable until one of its two machines changes — the premise of
// the incremental Checker.
//
// Both methods reuse caller-owned buffers (see pairwise.Scratch): the
// engines run them hundreds of thousands of times per replication, and a
// reused scratch must give the bit-identical result of a fresh one.
//
// Job lists hold entries, not bare jobs: an entry's low 32 bits are the job
// (core.JobOf), and a list is sorted by entry, which is the protocol's
// ListOrder. In increasing job order an entry is the job itself; in a
// ListOrder permutation it is rank<<32 | job. Given inputs sorted by entry,
// both methods return each side sorted by entry (a split's sides are
// ordered subsequences of the pooled entries), which is every engine's
// job-list invariant, so no caller sorts a step's result, and both must
// give the same partition of jobs on either kind of list. (The
// LoadedSplitter forms are the exception; see there.)
type Protocol interface {
	// Name identifies the protocol in traces and benchmark output.
	Name() string
	// ListOrder is the order the engines keep this protocol's job lists
	// in: nil for increasing job index, or a permutation of the model's
	// jobs whose k-th element is the job of rank k. DLB2C returns its
	// model's ratio order, so the unions its kernels pool arrive in the
	// order of CLB2C and Greedy Load Balancing and no step sorts. It is a
	// method so that a value embedding a Protocol keeps the order.
	ListOrder() []uint32
	// SplitScratch partitions the pooled entries between machines i and j
	// and returns the two sides, each an ordered subsequence of jobs. jobs
	// is sorted by entry and is not mutated; it may alias s.Union
	// (implementations write the other buffers only). The returned slices
	// alias s and stay valid only until s is next used; the caller owns
	// them and may reorder them in place.
	SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) (toI, toJ []int)
	// BalanceSides is one pairwise balancing step of machines i and j:
	// onI and onJ are the entries on i and j, each sorted, and are not
	// mutated; of s's buffers they may alias only Side1 and Side2. It
	// returns the entries the step leaves on i and on j, each sorted,
	// aliasing s. The rebuild protocols merge the sides and split the
	// union with SplitScratch; the MinMove protocols transfer jobs between
	// the sides. The sequential engine steps with it and its stability
	// check replays it, so a value that embeds a Protocol steps and checks
	// the step it inherits.
	BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) (toI, toJ []int)
}

// Balance performs one step of p on machines i and j of the assignment: it
// lists the two machines' jobs in increasing job order by an O(n) scan,
// runs p.BalanceSides on a fresh scratch, and moves the jobs whose machine
// changed. It is the sequential engine's step without the engine's job
// lists, which is what the state-space exploration's short-lived clones
// want (see Explore).
func Balance(p Protocol, a *core.Assignment, i, j int) {
	var s pairwise.Scratch
	toI, toJ := p.BalanceSides(&s, i, j, a.Jobs(i), a.Jobs(j))
	for _, job := range toI {
		if a.MachineOf(job) != i {
			a.Move(job, i)
		}
	}
	for _, job := range toJ {
		if a.MachineOf(job) != j {
			a.Move(job, j)
		}
	}
}

// splitSides merges the pair's sides into s.Union and splits the union with
// p's scratch kernel: BalanceSides for the rebuild protocols, and the
// sharded session's step (SplitStep) for all. It is generic so that
// protocol values whose fields are interfaces (SameCost, OJTB, DLB2C) are
// not re-boxed into the Protocol interface on every step, which would be a
// per-step heap allocation.
func splitSides[P Protocol](p P, s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
	s.Union = pairwise.MergeSortedInto(s.Union[:0], onI, onJ)
	return p.SplitScratch(s, i, j, s.Union)
}

// OJTB is Algorithm 3. It assumes (but does not verify) that all jobs have
// the same processing time on any given machine; under that assumption each
// pairwise step is an optimal two-machine rebalancing and the protocol
// converges to a global optimum (Lemma 4).
type OJTB struct {
	// Model prices the jobs; it must be the model of any assignment
	// passed to Balance.
	Model core.CostModel
}

// Name implements Protocol.
func (OJTB) Name() string { return "OJTB" }

// ListOrder implements Protocol: increasing job index.
func (OJTB) ListOrder() []uint32 { return nil }

// SplitScratch implements Protocol.
func (p OJTB) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	s.To1, s.To2 = pairwise.AppendSplitBasicGreedy(p.Model, i, j, jobs, s.To1[:0], s.To2[:0])
	return s.To1, s.To2
}

// BalanceSides implements Protocol.
func (p OJTB) BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
	return splitSides(p, s, i, j, onI, onJ)
}

// MJTB is Algorithm 4: the typed generalization of OJTB. Each pairwise step
// rebalances every job type independently with BasicGreedy, so each type's
// sub-schedule converges to its own optimum and the total makespan is at
// most k·OPT (Theorem 5).
type MJTB struct {
	// Model is the typed instance; it must be the assignment's model.
	Model *core.Typed
}

// Name implements Protocol.
func (MJTB) Name() string { return "MJTB" }

// ListOrder implements Protocol: increasing job index.
func (MJTB) ListOrder() []uint32 { return nil }

// SplitScratch implements Protocol. It buckets the input positions by type,
// keeping input order within a type, runs BasicGreedy on each type with
// loads starting from zero, and emits both sides in input order.
func (p MJTB) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	byType := s.Buckets(p.Model.NumTypes())
	for pos, job := range jobs {
		t := p.Model.TypeOf(core.JobOf(job))
		byType[t] = append(byType[t], pos)
	}
	// Canonical orientation, as in pairwise.AppendSplitBasicGreedy: ties go
	// to the lower-indexed machine.
	lo, hi := min(i, j), max(i, j)
	second := s.Sides(len(jobs))
	for _, positions := range byType {
		var lLo, lHi core.Cost
		for _, pos := range positions {
			job := core.JobOf(jobs[pos])
			cLo, cHi := p.Model.Cost(lo, job), p.Model.Cost(hi, job)
			if lLo+cLo <= lHi+cHi {
				lLo += cLo
			} else {
				second[pos] = true
				lHi += cHi
			}
		}
	}
	toLo, toHi := s.Emit(jobs)
	if i > j {
		return toHi, toLo
	}
	return toLo, toHi
}

// BalanceSides implements Protocol.
func (p MJTB) BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
	return splitSides(p, s, i, j, onI, onJ)
}

// DLB2C is Algorithm 7 for a two-cluster model: same-cluster pairs use
// Greedy Load Balancing (Algorithm 6), cross-cluster pairs use CLB2C on two
// singleton clusters (Algorithm 5).
type DLB2C struct {
	// Model is the clustered instance; it must be the assignment's model.
	Model core.Clustered
}

// Name implements Protocol.
func (DLB2C) Name() string { return "DLB2C" }

// ListOrder implements Protocol: on a core.TwoCluster, the model's cached
// ratio order, so a cross-cluster pair and a same-cluster pair on cluster 0
// pool their jobs already in kernel order, and one on cluster 1 in its
// group-reversed form, which core.OrderJobs takes without sorting. Ranked
// entries need a 64-bit int: where int is 32 bits, and on other models,
// DLB2C keeps increasing job order.
func (p DLB2C) ListOrder() []uint32 {
	if tc, ok := p.Model.(*core.TwoCluster); ok && strconv.IntSize == 64 {
		return tc.RatioOrder()
	}
	return nil
}

// SplitScratch implements Protocol.
func (p DLB2C) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	if p.Model.ClusterOf(i) == p.Model.ClusterOf(j) {
		return pairwise.SplitGreedyLoadBalancingScratch(s, p.Model, i, j, jobs)
	}
	return pairwise.SplitCLB2CScratch(s, p.Model, i, j, jobs)
}

// BalanceSides implements Protocol.
func (p DLB2C) BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
	return splitSides(p, s, i, j, onI, onJ)
}

// SameCost is the single-cluster protocol used for the homogeneous
// experiments of Section VII.A: every pair is balanced with the same-cost
// greedy kernel. On an identical-machines model it is exactly the dynamics
// the paper's Markov chain abstracts.
type SameCost struct {
	// Model prices the jobs; it must be the model of any assignment
	// passed to Balance.
	Model core.CostModel
}

// Name implements Protocol.
func (SameCost) Name() string { return "SameCost" }

// ListOrder implements Protocol: increasing job index.
func (SameCost) ListOrder() []uint32 { return nil }

// SplitScratch implements Protocol.
func (p SameCost) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	s.To1, s.To2 = pairwise.AppendSplitSameCost(p.Model, i, j, jobs, s.To1[:0], s.To2[:0])
	return s.To1, s.To2
}

// BalanceSides implements Protocol.
func (p SameCost) BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
	return splitSides(p, s, i, j, onI, onJ)
}

// Stable reports whether the assignment is a fixed point of the protocol:
// no pairwise balancing step changes the placement of any job. Stability is
// the premise of Theorem 7 ("if the algorithm converges..."). The check is a
// full scan of the m(m−1)/2 pairs by one Checker, which replays each pair's
// step on the two sorted job lists without cloning the assignment.
func Stable(p Protocol, a *core.Assignment) bool {
	i, _ := UnstablePair(p, a)
	return i == -1
}

// UnstablePair returns the first pair of machines, in the order (0,1),
// (0,2), …, (1,2), …, whose balancing step would change the assignment, or
// (-1, -1) if the assignment is stable. It runs a fresh Checker on
// p.BalanceSides, so the scan starts at (0,1), over job lists in
// p.ListOrder(), as the engines keep them.
func UnstablePair(p Protocol, a *core.Assignment) (int, int) {
	c := NewChecker(a.Model().NumMachines(), p.BalanceSides)
	c.order = p.ListOrder()
	return c.CheckAssignment(a)
}
