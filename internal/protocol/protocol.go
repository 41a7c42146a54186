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
// Each protocol exposes the pure Split form (partition a pooled job set
// between two machines) used by the sharded and message-passing engines,
// and the Balance form that applies the split to a core.Assignment, used by
// the sequential gossip engine and the exhaustive state-space exploration
// of Proposition 8. Both forms share the kernels in internal/pairwise.
package protocol

import (
	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// Protocol is a decentralized balancing rule. Split must be a deterministic
// function of (i, j, jobs) so that stability is well defined and so that the
// sequential, sharded and message-passing engines behave identically.
//
// Locality contract: a split reads nothing but i, j and the pooled jobs (and
// the immutable cost model), never the placement of other machines or any
// state left by earlier calls. BalanceSides likewise reads only i, j and the
// pair's two sides. So whether a pair's step would change the placement
// depends on the pair and its two job lists alone, and a pair verified
// stable stays stable until one of its two machines changes — the premise of
// the incremental Checker.
//
// Every rule exists in an allocating and a scratch form. The scratch forms
// are what the engines run hundreds of thousands of times per replication:
// they reuse caller-owned buffers (see pairwise.Scratch) and must produce
// bit-identical results to their allocating counterparts — the determinism
// goldens in internal/experiments pin exactly that. Where the two forms
// would duplicate a kernel loop, the allocating form is the scratch form on
// a fresh scratch.
//
// Both forms return each side as an ordered subsequence of jobs: given the
// union in increasing index order, both sides come back in increasing index
// order, which is the sharded engine's job-list invariant, so no caller
// sorts a split. (The LoadedSplitter forms are the exception; see there.)
type Protocol interface {
	// Name identifies the protocol in traces and benchmark output.
	Name() string
	// Split partitions the pooled jobs between machines i and j and
	// returns the two sides, each an ordered subsequence of jobs. jobs is
	// given in increasing index order and must not be mutated.
	Split(i, j int, jobs []int) (toI, toJ []int)
	// SplitScratch is Split against caller-owned scratch: the returned
	// slices alias s and stay valid only until s is next used. jobs may
	// alias s.Union (implementations write the other buffers only); the
	// caller owns the result and may reorder it in place.
	SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) (toI, toJ []int)
	// Balance performs one pairwise balancing step between machines i and
	// j of the assignment.
	Balance(a *core.Assignment, i, j int)
	// BalanceScratch is Balance reusing caller-owned scratch — the
	// allocation-free step path of the sequential engine. It reads the
	// pair's jobs through the assignment's per-machine index and returns
	// the number of jobs that changed machine.
	BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int
	// BalanceSides is the step of BalanceScratch on the pair's current
	// sides instead of an assignment: onI and onJ are the jobs on i and j
	// in increasing job order and are not mutated; of s's buffers they may
	// alias only Side1 and Side2. It returns the jobs the step leaves on i
	// and on j, each in increasing job order, aliasing s. The rebuild protocols merge the sides and
	// split the union with SplitScratch; the MinMove protocols transfer
	// jobs between the sides. The sequential engine's stability check
	// replays this step, so a value that embeds a Protocol checks the same
	// step as the BalanceScratch it inherits.
	BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) (toI, toJ []int)
}

// balance pools the pair's jobs, splits them with p and applies the result.
// It scans the job→machine map directly (no index), which is what the
// state-space exploration's short-lived clones want (see Explore).
func balance(p Protocol, a *core.Assignment, i, j int) {
	jobs := pairwise.Union(a, i, j)
	toI, toJ := p.Split(i, j, jobs)
	pairwise.Apply(a, i, j, toI, toJ)
}

// balanceScratch pools the pair's jobs through the assignment's job index
// into s.Union, splits them with p's scratch kernel and applies the result,
// returning the migration count. It is generic so that protocol values whose
// fields are interfaces (SameCost, OJTB, DLB2C) are not re-boxed into the
// Protocol interface on every step — that boxing was the last per-step heap
// allocation.
func balanceScratch[P Protocol](p P, s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	s.Union = pairwise.AppendUnion(s.Union[:0], a, i, j)
	toI, toJ := p.SplitScratch(s, i, j, s.Union)
	return pairwise.ApplyCount(a, i, j, toI, toJ)
}

// splitSides merges the pair's sides into s.Union and splits the union with
// p's scratch kernel, the split balanceScratch makes: BalanceSides for the
// rebuild protocols, and the sharded session's step (SplitStep) for all.
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

// Split implements Protocol using BasicGreedy (Algorithm 2).
func (p OJTB) Split(i, j int, jobs []int) ([]int, []int) {
	return pairwise.SplitBasicGreedy(p.Model, i, j, jobs)
}

// SplitScratch implements Protocol.
func (p OJTB) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	s.To1, s.To2 = pairwise.AppendSplitBasicGreedy(p.Model, i, j, jobs, s.To1[:0], s.To2[:0])
	return s.To1, s.To2
}

// Balance implements Protocol.
func (p OJTB) Balance(a *core.Assignment, i, j int) { balance(p, a, i, j) }

// BalanceScratch implements Protocol.
func (p OJTB) BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	return balanceScratch(p, s, a, i, j)
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

// Split implements Protocol: SplitScratch on a fresh scratch.
func (p MJTB) Split(i, j int, jobs []int) ([]int, []int) {
	var s pairwise.Scratch
	return p.SplitScratch(&s, i, j, jobs)
}

// SplitScratch implements Protocol. It buckets the input positions by type,
// keeping input order within a type, runs BasicGreedy on each type with
// loads starting from zero, and emits both sides in input order.
func (p MJTB) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	byType := s.Buckets(p.Model.NumTypes())
	for pos, job := range jobs {
		t := p.Model.TypeOf(job)
		byType[t] = append(byType[t], pos)
	}
	// Canonical orientation, as in pairwise.AppendSplitBasicGreedy: ties go
	// to the lower-indexed machine.
	lo, hi := min(i, j), max(i, j)
	second := s.Sides(len(jobs))
	for _, positions := range byType {
		var lLo, lHi core.Cost
		for _, pos := range positions {
			cLo, cHi := p.Model.Cost(lo, jobs[pos]), p.Model.Cost(hi, jobs[pos])
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

// Balance implements Protocol.
func (p MJTB) Balance(a *core.Assignment, i, j int) { balance(p, a, i, j) }

// BalanceScratch implements Protocol.
func (p MJTB) BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	return balanceScratch(p, s, a, i, j)
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

// Split implements Protocol.
func (p DLB2C) Split(i, j int, jobs []int) ([]int, []int) {
	if p.Model.ClusterOf(i) == p.Model.ClusterOf(j) {
		return pairwise.SplitGreedyLoadBalancing(p.Model, i, j, jobs)
	}
	return pairwise.SplitCLB2C(p.Model, i, j, jobs)
}

// SplitScratch implements Protocol.
func (p DLB2C) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	if p.Model.ClusterOf(i) == p.Model.ClusterOf(j) {
		return pairwise.SplitGreedyLoadBalancingScratch(s, p.Model, i, j, jobs)
	}
	return pairwise.SplitCLB2CScratch(s, p.Model, i, j, jobs)
}

// Balance implements Protocol.
func (p DLB2C) Balance(a *core.Assignment, i, j int) { balance(p, a, i, j) }

// BalanceScratch implements Protocol.
func (p DLB2C) BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	return balanceScratch(p, s, a, i, j)
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

// Split implements Protocol.
func (p SameCost) Split(i, j int, jobs []int) ([]int, []int) {
	return pairwise.SplitSameCost(p.Model, i, j, jobs)
}

// SplitScratch implements Protocol.
func (p SameCost) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	s.To1, s.To2 = pairwise.AppendSplitSameCost(p.Model, i, j, jobs, s.To1[:0], s.To2[:0])
	return s.To1, s.To2
}

// Balance implements Protocol.
func (p SameCost) Balance(a *core.Assignment, i, j int) { balance(p, a, i, j) }

// BalanceScratch implements Protocol.
func (p SameCost) BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	return balanceScratch(p, s, a, i, j)
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
// p.BalanceSides, so the scan starts at (0,1).
func UnstablePair(p Protocol, a *core.Assignment) (int, int) {
	return NewChecker(a.Model().NumMachines(), p.BalanceSides).CheckAssignment(a)
}
