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
// A protocol is one pairwise rule, and Step is its pair step on sorted
// per-machine job lists: the sequential, sharded and message-passing
// engines, the stability Checker and Balance all step a pair through it.
// Step offers the pair to the protocol's Transfer, which MJTB and the
// MinMove protocols accept: MJTB walks its two lists once, merging,
// splitting and recording the arrivals as it goes, and the MinMove
// protocols move jobs between the two sides. Otherwise Step merges the two
// lists, splits the union with the protocol's SplitScratch, the kernels in
// internal/pairwise, and walks one new side against its old list to find
// both sides' arrivals. Every path leaves the pair's new loads on the
// scratch.
// ListOrder names the order the engines keep the lists in: DLB2C's is its
// model's ratio order, so its kernels never sort, and MJTB's is its model's
// type order, so its walk reads no job's type. Balance applies one step to
// a core.Assignment for the exhaustive state-space exploration of
// Proposition 8. EquationThree and ClusterImbalance check the two
// certificates Theorem 7 reads off a stable DLB2C schedule, in O(n), and
// TypeOptimal the one Theorem 5 reads off a stable MJTB schedule.
package protocol

import (
	"strconv"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// Protocol is a decentralized balancing rule. Its pair step (Step) must be a
// deterministic function of (i, j, the pair's two job lists) so that
// stability is well defined and so that the sequential, sharded and
// message-passing engines behave identically.
//
// Locality contract: a step reads nothing but i, j and the pair's jobs (and
// the immutable cost model), never the placement of other machines or any
// state left by earlier calls. So whether a pair's step would change the
// placement depends on the pair and its two job lists alone, and a pair
// verified stable stays stable until one of its two machines changes — the
// premise of the incremental Checker.
//
// Both step methods reuse caller-owned buffers (see pairwise.Scratch): the
// engines run them hundreds of thousands of times per replication, and a
// reused scratch must give the bit-identical result of a fresh one. Both
// also leave the new loads of i's side and j's side in s.Load1 and s.Load2,
// summed as they place the jobs, which the sharded engine writes back as
// the pair's loads.
//
// Job lists hold entries, not bare jobs: an entry's low 32 bits are the job
// (core.JobOf), and a list is sorted by entry, which is the protocol's
// ListOrder. In increasing job order an entry is the job itself; in a
// ListOrder permutation it is rank<<32 | job. Given inputs sorted by entry,
// both step methods return each side sorted by entry (a split's sides are
// ordered subsequences of the pooled entries), which is every engine's
// job-list invariant, so no caller sorts a step's result, and a step must
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
	// and returns the two sides, each an ordered subsequence of jobs, and
	// leaves their loads in s.Load1 and s.Load2. jobs is sorted by entry
	// and is not mutated; it may alias s.Union (implementations write the
	// other buffers only). The returned slices alias s and stay valid only
	// until s is next used; the caller owns them and may reorder them in
	// place. Step calls it on the Protocol value it was given wherever
	// Transfer declines, so a value that embeds a protocol whose Transfer
	// declines and overrides SplitScratch splits every pair its engine
	// steps or checks.
	SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) (toI, toJ []int)
	// Transfer is the step of a protocol that steps the pair's two lists
	// itself instead of splitting their union: onI and onJ are the entries
	// on i and j, each sorted, and are not mutated. With ok it returns the
	// entries the step leaves on i and on j, each sorted, aliasing s, and
	// writes their arrivals to s.Diff1 and s.Diff2 and their loads to
	// s.Load1 and s.Load2, as Step's merge-and-split path would. MJTB
	// always accepts (its walk, see MJTB), the MinMove protocols accept
	// within a cluster, and the other rebuild protocols always return
	// ok = false, as does DLB2CMinMove on a cross-cluster pair; Step then
	// merges the sides and splits the union with SplitScratch. Step calls
	// Transfer once per pair step. It is a method, not a type switch in
	// Step, so that a value which embeds MJTB or a MinMove protocol keeps
	// its step.
	Transfer(s *pairwise.Scratch, i, j int, onI, onJ []int) (toI, toJ []int, ok bool)
}

// Step is the pair step of every engine: one step of p on machines i and j,
// whose entries onI and onJ are each sorted, in p.ListOrder() or in
// increasing job order, and are not mutated; they may alias none of s's
// buffers. Where p.Transfer accepts, its result is the step's. Otherwise
// Step merges the two lists into s.Union, splits the union with
// p.SplitScratch and walks i's new side against its old list once
// (pairwise.AppendMoves). Either way it returns the entries the step leaves
// on i and on j, each sorted and aliasing s, leaves each side's arrivals in
// s.Diff1 and s.Diff2 and their new loads in s.Load1 and s.Load2. The
// union is conserved, so one side's arrivals are the other side's
// departures (the walk writes i's departures as j's arrivals), and the step
// changed the pair exactly when an arrival list is not empty: the engines
// move the arrivals, the sharded engine writes the loads, and the Checker
// calls a pair stable when there are no arrivals.
//
//hetlb:noalloc
func Step(p Protocol, s *pairwise.Scratch, i, j int, onI, onJ []int) (toI, toJ []int) {
	if toI, toJ, ok := p.Transfer(s, i, j, onI, onJ); ok {
		return toI, toJ
	}
	s.Union = pairwise.MergeSortedInto(s.Union[:0], onI, onJ)
	toI, toJ = p.SplitScratch(s, i, j, s.Union)
	s.Diff1, s.Diff2 = pairwise.AppendMoves(s.Diff1[:0], s.Diff2[:0], onI, toI)
	return toI, toJ
}

// Balance performs one step of p on machines i and j of the assignment: it
// builds the job lists in p.ListOrder() by one counting pass over the
// assignment (core.Assignment.FillOrderedLists), runs Step on a fresh
// scratch and moves the job of each arrival. It is an engine's step without
// the engine's job lists, which is what the state-space exploration's
// short-lived clones want (see Explore).
func Balance(p Protocol, a *core.Assignment, i, j int) {
	lists := make([][]int, a.Model().NumMachines())
	a.FillOrderedLists(lists, make([]int, a.NumAssigned()), p.ListOrder())
	var s pairwise.Scratch
	Step(p, &s, i, j, lists[i], lists[j])
	for _, entry := range s.Diff1 {
		a.Move(core.JobOf(entry), i)
	}
	for _, entry := range s.Diff2 {
		a.Move(core.JobOf(entry), j)
	}
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
	s.To1, s.To2, s.Load1, s.Load2 = pairwise.AppendSplitBasicGreedy(p.Model, i, j, 0, 0, jobs, s.To1[:0], s.To2[:0])
	return s.To1, s.To2
}

// Transfer implements Protocol: OJTB rebuilds the pair's partition.
func (OJTB) Transfer(*pairwise.Scratch, int, int, []int, []int) ([]int, []int, bool) {
	return nil, nil, false
}

// MJTB is Algorithm 4: the typed generalization of OJTB. Each pairwise step
// rebalances every job type independently with BasicGreedy, so each type's
// sub-schedule converges to its own optimum and the total makespan is at
// most k·OPT (Theorem 5). Its pair step is one walk over the two job lists,
// pairwise.MergeSplitByType, which Transfer and SplitScratch both run.
type MJTB struct {
	// Model is the typed instance; it must be the assignment's model.
	Model *core.Typed
}

// Name implements Protocol.
func (MJTB) Name() string { return "MJTB" }

// ListOrder implements Protocol: the model's type order
// (core.Typed.TypeOrder), jobs by type and then by index, so an entry's
// rank gives its type and the step reads no type per job. Within a type
// that is increasing job order, the order BasicGreedy balances a type in,
// so a step splits as it does on lists in job order. Ranked entries need a
// 64-bit int: where int is 32 bits, MJTB keeps increasing job order.
func (p MJTB) ListOrder() []uint32 {
	if strconv.IntSize == 64 {
		order, _ := p.Model.TypeOrder()
		return order
	}
	return nil
}

// SplitScratch implements Protocol: the pair step's walk with every pooled
// job on i, so its arrivals, which it writes to s.Diff1 and s.Diff2, are
// relative to that placement.
func (p MJTB) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	return pairwise.MergeSplitByType(s, p.Model, i, j, jobs, nil)
}

// Transfer implements Protocol: MJTB's step is one walk that merges and
// splits the two lists and records the arrivals and loads as it goes, so it
// always accepts.
func (p MJTB) Transfer(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int, bool) {
	toI, toJ := pairwise.MergeSplitByType(s, p.Model, i, j, onI, onJ)
	return toI, toJ, true
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
// group-reversed form, and the kernels take the union as it stands: a cut
// across clusters, one walk within. Ranked entries need a 64-bit int:
// where int is 32 bits, and on other models, DLB2C keeps increasing job
// order.
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

// Transfer implements Protocol: DLB2C rebuilds the pair's partition.
func (DLB2C) Transfer(*pairwise.Scratch, int, int, []int, []int) ([]int, []int, bool) {
	return nil, nil, false
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
	s.To1, s.To2, s.Load1, s.Load2 = pairwise.AppendSplitSameCost(p.Model, i, j, 0, 0, jobs, s.To1[:0], s.To2[:0])
	return s.To1, s.To2
}

// Transfer implements Protocol: SameCost rebuilds the pair's partition.
func (SameCost) Transfer(*pairwise.Scratch, int, int, []int, []int) ([]int, []int, bool) {
	return nil, nil, false
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
// (-1, -1) if the assignment is stable. It runs a fresh Checker on p, so the
// scan starts at (0,1), over job lists in p.ListOrder(), as the engines keep
// them.
func UnstablePair(p Protocol, a *core.Assignment) (int, int) {
	return NewChecker(a.Model().NumMachines(), p).CheckAssignment(a)
}
