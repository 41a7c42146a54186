// Package pairwise implements the two-machine balancing kernels that the
// decentralized protocols are built from:
//
//   - BasicGreedy (Algorithm 2): earliest-completion-time greedy over the
//     union of the two machines' jobs; optimal when all jobs are of one type.
//   - GreedyLoadBalancing (Algorithm 6): same-cluster rebalancing that sorts
//     the union by cluster cost ratio and assigns each job to the less
//     loaded machine.
//   - CLB2C on a pair: Algorithm 5 run on two singleton clusters, used by
//     DLB2C when the two machines belong to different clusters.
//   - LargestFirst: the same greedy as GreedyLoadBalancing in decreasing
//     job size, used by DLBKC within a cluster.
//
// Every kernel exists in two layers. The Split* functions are pure: given
// the pooled job set they return the partition (jobs for the first machine,
// jobs for the second) without touching any shared state — this is what the
// sharded engine's workers and the message-passing runtime call on the two
// machines involved. The same-named convenience wrappers apply a split to a
// core.Assignment for the sequential engine and the tests.
//
// Each side a Split* kernel returns is an ordered subsequence of its input,
// so a union passed in increasing job order comes back as two sides in
// increasing job order, ready to become the machines' job lists. The
// ordering kernels (GreedyLoadBalancing, CLB2C, LargestFirst) get there by
// sorting packed keys of the pooled jobs, deciding a side per input
// position, and writing both sides in input order with Scratch.Emit. The
// *Loaded variants are the exception: they return sides in placement order,
// which the dynamic simulator uses as each machine's queue.
//
// All kernels are deterministic functions of the pooled job set (not of how
// the pair currently splits it), which makes them idempotent: applying the
// same kernel to the same pair twice in a row leaves the partition
// unchanged. Stability detection relies on this.
package pairwise

import (
	"slices"

	"hetlb/internal/core"
)

// Union returns the jobs currently assigned to either machine, in increasing
// job order, by a brute-force O(n) scan of the job→machine map. The step
// paths use the index-backed AppendUnion instead; the scan form stays as the
// reference the property tests compare the index against, and as what
// Protocol.Balance uses on the state-space exploration's short-lived clones
// (they never amortize an index build).
func Union(a *core.Assignment, m1, m2 int) []int {
	var jobs []int
	for j := 0; j < a.Model().NumJobs(); j++ {
		if i := a.MachineOf(j); i == m1 || i == m2 {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// AppendUnion appends the jobs currently assigned to either machine to dst,
// in increasing job order, and returns the extended slice. It reads the
// assignment's per-machine job index, so it is O(u log u) for a union of
// size u — independent of the total job count — and allocation-free once
// dst has the capacity.
//
//hetlb:noalloc
func AppendUnion(dst []int, a *core.Assignment, m1, m2 int) []int {
	start := len(dst)
	dst = a.AppendJobs(dst, m1)
	dst = a.AppendJobs(dst, m2)
	// The two segments are each sorted and disjoint; one more sort of the
	// combined (mostly ordered) segment interleaves them.
	slices.Sort(dst[start:])
	return dst
}

// Apply moves the pooled jobs of machines m1 and m2 according to a split.
// Every job in to1/to2 must currently be assigned to m1 or m2.
func Apply(a *core.Assignment, m1, m2 int, to1, to2 []int) {
	ApplyCount(a, m1, m2, to1, to2)
}

// ApplyCount is Apply returning the number of jobs whose machine changed —
// the per-step migration count the engines report. to1 and to2 are disjoint,
// so the count equals the number of Move operations performed.
//
//hetlb:noalloc
func ApplyCount(a *core.Assignment, m1, m2 int, to1, to2 []int) int {
	moved := 0
	for _, j := range to1 {
		if a.MachineOf(j) != m1 {
			a.Move(j, m1)
			moved++
		}
	}
	for _, j := range to2 {
		if a.MachineOf(j) != m2 {
			a.Move(j, m2)
			moved++
		}
	}
	return moved
}

// SplitBasicGreedy implements Algorithm 2 as a pure function: each job of
// jobs (in the given order; callers pass increasing job index) goes to the
// machine where it would complete earliest given the loads accumulated so
// far, ties to the lower-indexed machine (so the kernel is a function of
// the unordered pair and stability is well defined). When the jobs all have the same cost per machine (one job
// type), the result is an optimal two-machine schedule (Lemma 3).
func SplitBasicGreedy(m core.CostModel, m1, m2 int, jobs []int) (to1, to2 []int) {
	return AppendSplitBasicGreedy(m, m1, m2, jobs, nil, nil)
}

// AppendSplitBasicGreedy is SplitBasicGreedy appending into caller-owned
// buffers (reused capacity, no allocation in steady state). The greedy loads
// start at zero regardless of existing buffer content.
//
//hetlb:noalloc
func AppendSplitBasicGreedy(m core.CostModel, m1, m2 int, jobs, to1, to2 []int) ([]int, []int) {
	if m1 > m2 {
		to2, to1 = AppendSplitBasicGreedy(m, m2, m1, jobs, to2, to1)
		return to1, to2
	}
	var l1, l2 core.Cost
	for _, j := range jobs {
		c1, c2 := m.Cost(m1, j), m.Cost(m2, j)
		if l1+c1 <= l2+c2 {
			to1 = append(to1, j)
			l1 += c1
		} else {
			to2 = append(to2, j)
			l2 += c2
		}
	}
	return to1, to2
}

// BasicGreedy applies SplitBasicGreedy to the live union of a pair.
func BasicGreedy(a *core.Assignment, m1, m2 int) {
	jobs := Union(a, m1, m2)
	to1, to2 := SplitBasicGreedy(a.Model(), m1, m2, jobs)
	Apply(a, m1, m2, to1, to2)
}

// SplitGreedyLoadBalancing implements Algorithm 6 as a pure function for two
// machines of the same cluster: the pooled jobs are taken in increasing cost
// ratio of the pair's own cluster over the other cluster, and each job goes
// to the machine with the smaller accumulated load (ties to the
// lower-indexed machine, making the kernel symmetric in its arguments). It
// is SplitGreedyLoadBalancingScratch on a fresh scratch.
//
// The ratio order does not change the loads (both machines price jobs
// identically) but it is essential to the stable-state analysis of
// Theorem 7: it guarantees that the job of maximal ratio on the makespan
// machine is placed last.
func SplitGreedyLoadBalancing(c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	var s Scratch
	return SplitGreedyLoadBalancingScratch(&s, c, m1, m2, jobs)
}

// SplitGreedyLoadBalancingScratch is SplitGreedyLoadBalancing against
// caller-owned scratch: the returned slices alias s.To1/s.To2 and are
// ordered subsequences of jobs. No allocation in steady state.
//
//hetlb:noalloc
func SplitGreedyLoadBalancingScratch(s *Scratch, c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: GreedyLoadBalancing requires machines of the same cluster")
	}
	return s.splitGreedy(byRatio, c, m1, m2, jobs)
}

// SplitLargestFirstScratch splits the pooled jobs of two machines of the
// same cluster (of a model with any number of clusters) largest job first
// (ties by index), each job to the machine with the smaller accumulated
// load, ties to the lower-indexed machine so the kernel is symmetric. The
// returned slices alias s.To1/s.To2 and are ordered subsequences of jobs.
// DLBKC runs it within a cluster.
//
//hetlb:noalloc
func SplitLargestFirstScratch(s *Scratch, c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: a largest-first split requires machines of the same cluster")
	}
	return s.splitGreedy(bySize, c, m1, m2, jobs)
}

// GreedyLoadBalancing applies SplitGreedyLoadBalancing to the live union of
// a same-cluster pair.
func GreedyLoadBalancing(a *core.Assignment, c core.Clustered, m1, m2 int) {
	jobs := Union(a, m1, m2)
	to1, to2 := SplitGreedyLoadBalancing(c, m1, m2, jobs)
	Apply(a, m1, m2, to1, to2)
}

// SplitSameCost rebalances two machines that price every job identically
// (identical machines, or any single-cluster model): each job, in the given
// order, goes to the machine with the smaller accumulated load. This is
// BasicGreedy specialized to equal costs and is the kernel used for the
// homogeneous one-cluster experiments (Section VII.A).
func SplitSameCost(m core.CostModel, m1, m2 int, jobs []int) (to1, to2 []int) {
	return AppendSplitSameCost(m, m1, m2, jobs, nil, nil)
}

// AppendSplitSameCost is SplitSameCost appending into caller-owned buffers;
// like AppendSplitBasicGreedy, the loads start at zero for this call.
//
//hetlb:noalloc
func AppendSplitSameCost(m core.CostModel, m1, m2 int, jobs, to1, to2 []int) ([]int, []int) {
	if m1 > m2 {
		to2, to1 = AppendSplitSameCost(m, m2, m1, jobs, to2, to1)
		return to1, to2
	}
	var l1, l2 core.Cost
	for _, j := range jobs {
		if l1 <= l2 {
			to1 = append(to1, j)
			l1 += m.Cost(m1, j)
		} else {
			to2 = append(to2, j)
			l2 += m.Cost(m2, j)
		}
	}
	return to1, to2
}

// GreedySameCost applies SplitSameCost to the live union of a pair.
func GreedySameCost(a *core.Assignment, m1, m2 int) {
	jobs := Union(a, m1, m2)
	to1, to2 := SplitSameCost(a.Model(), m1, m2, jobs)
	Apply(a, m1, m2, to1, to2)
}

// SplitCLB2C runs Algorithm 5 on two singleton clusters as a pure function.
// mA and mB may be passed in either order; the returned toA/toB correspond
// to mA/mB respectively. The jobs are taken in increasing cluster-0/1 cost
// ratio; at each step the head job is tentatively placed on the cluster-0
// machine and the tail job on the cluster-1 machine, and the placement that
// finishes earlier is committed (ties favor cluster 0). It is
// SplitCLB2CScratch on a fresh scratch.
func SplitCLB2C(c core.Clustered, mA, mB int, jobs []int) (toA, toB []int) {
	var s Scratch
	return SplitCLB2CScratch(&s, c, mA, mB, jobs)
}

// SplitCLB2CScratch is SplitCLB2C against caller-owned scratch: the returned
// slices alias s.To1/s.To2 and are ordered subsequences of jobs.
//
//hetlb:noalloc
func SplitCLB2CScratch(s *Scratch, c core.Clustered, mA, mB int, jobs []int) (toA, toB []int) {
	if c.ClusterOf(mA) == c.ClusterOf(mB) {
		panic("pairwise: CLB2C on a pair requires machines of different clusters")
	}
	s.orderBy(byRatio, c, 0, jobs)
	second := s.Sides(len(jobs))
	var l0, l1 core.Cost
	lo, hi := 0, len(jobs)-1
	for lo <= hi {
		head, tail := int(uint32(s.keys[lo])), int(uint32(s.keys[hi]))
		c0 := l0 + s.costs[head].own
		c1 := l1 + s.costs[tail].other
		if c0 <= c1 {
			l0 = c0
			lo++
		} else {
			second[tail] = true
			l1 = c1
			hi--
		}
	}
	to0, to1 := s.Emit(jobs)
	if c.ClusterOf(mA) == 1 {
		return to1, to0
	}
	return to0, to1
}

// CLB2CPair applies SplitCLB2C to the live union of a cross-cluster pair.
func CLB2CPair(a *core.Assignment, c core.Clustered, mA, mB int) {
	jobs := Union(a, mA, mB)
	toA, toB := SplitCLB2C(c, mA, mB, jobs)
	Apply(a, mA, mB, toA, toB)
}
