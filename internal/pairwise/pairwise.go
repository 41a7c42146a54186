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
// The kernels are pure: given the pooled job set they return the partition
// (jobs for the first machine, jobs for the second) without touching any
// shared state, appending into caller-owned buffers or a Scratch. Every
// engine runs a pair step the same way on sorted per-machine job lists:
// merge the two lists (MergeSortedInto), split the union, and diff each new
// side against the old list (AppendDiff) to find the jobs that moved.
//
// The kernels pool job-list entries, not bare jobs: every kernel reads the
// job from an entry's low 32 bits (core.JobOf), and the engines keep each
// list sorted by entry, in the protocol's list order (see
// protocol.Protocol). In increasing job order an entry is the job itself;
// DLB2C keeps its lists in the model's ratio order, entries rank<<32 | job,
// so a union merged from two of its lists is already in the order of CLB2C
// and Greedy Load Balancing (or, for a same-cluster pair on cluster 1, in
// its group-reversed form) and core.OrderJobs returns it without sorting.
//
// Each side a kernel returns is an ordered subsequence of its input, so a
// union passed sorted by entry comes back as two sides sorted by entry,
// ready to become the machines' job lists. The ordering kernels
// (GreedyLoadBalancing, CLB2C, LargestFirst) get there by ordering the
// pooled jobs with core.OrderJobs, deciding a side per input position, and
// writing both sides in input order with Scratch.Emit. The *Loaded
// variants are the exception: they return sides in placement order, which
// the dynamic simulator uses as each machine's queue.
//
// All kernels are deterministic functions of the pooled job set (not of how
// the pair currently splits it), which makes them idempotent: applying the
// same kernel to the same pair twice in a row leaves the partition
// unchanged. Stability detection relies on this.
package pairwise

import "hetlb/internal/core"

// Union returns the jobs currently assigned to either machine, in increasing
// job order, by an O(n) scan of the job→machine map: the pooled set the
// kernel tests split.
func Union(a *core.Assignment, m1, m2 int) []int {
	var jobs []int
	for j := 0; j < a.Model().NumJobs(); j++ {
		if i := a.MachineOf(j); i == m1 || i == m2 {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// AppendSplitBasicGreedy implements Algorithm 2, appending into
// caller-owned buffers (reused capacity, no allocation in steady state):
// each job of jobs (in the given order; callers pass increasing job index)
// goes to the machine where it would complete earliest given the loads
// accumulated so far, ties to the lower-indexed machine (so the kernel is a
// function of the unordered pair and stability is well defined). The greedy
// loads start at zero regardless of existing buffer content. When the jobs
// all have the same cost per machine (one job type), the result is an
// optimal two-machine schedule (Lemma 3).
//
//hetlb:noalloc
func AppendSplitBasicGreedy(m core.CostModel, m1, m2 int, jobs, to1, to2 []int) ([]int, []int) {
	if m1 > m2 {
		to2, to1 = AppendSplitBasicGreedy(m, m2, m1, jobs, to2, to1)
		return to1, to2
	}
	var l1, l2 core.Cost
	for _, j := range jobs {
		job := core.JobOf(j)
		c1, c2 := m.Cost(m1, job), m.Cost(m2, job)
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

// SplitGreedyLoadBalancingScratch implements Algorithm 6 for two machines
// of the same cluster: the pooled jobs are taken in increasing cost ratio of
// the pair's own cluster over the other cluster, and each job goes to the
// machine with the smaller accumulated load (ties to the lower-indexed
// machine, making the kernel symmetric in its arguments). The returned
// slices alias s.To1/s.To2 and are ordered subsequences of jobs. No
// allocation in steady state.
//
// The ratio order does not change the loads (both machines price jobs
// identically) but it is essential to the stable-state analysis of
// Theorem 7: it guarantees that the job of maximal ratio on the makespan
// machine is placed last.
//
//hetlb:noalloc
func SplitGreedyLoadBalancingScratch(s *Scratch, c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: GreedyLoadBalancing requires machines of the same cluster")
	}
	return s.splitGreedy(core.ByRatio, c, m1, m2, jobs)
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
	return s.splitGreedy(core.BySize, c, m1, m2, jobs)
}

// AppendSplitSameCost rebalances two machines that price every job
// identically (identical machines, or any single-cluster model): each job,
// in the given order, goes to the machine with the smaller accumulated load.
// This is BasicGreedy specialized to equal costs and is the kernel used for
// the homogeneous one-cluster experiments (Section VII.A). Like
// AppendSplitBasicGreedy it appends into caller-owned buffers, and the loads
// start at zero for this call.
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
			l1 += m.Cost(m1, core.JobOf(j))
		} else {
			to2 = append(to2, j)
			l2 += m.Cost(m2, core.JobOf(j))
		}
	}
	return to1, to2
}

// SplitCLB2CScratch runs Algorithm 5 on two singleton clusters. mA and mB
// may be passed in either order; the returned toA/toB correspond to mA/mB
// respectively. The jobs are taken in increasing cluster-0/1 cost ratio; at
// each step the head job is tentatively placed on the cluster-0 machine and
// the tail job on the cluster-1 machine, and the placement that finishes
// earlier is committed (ties favor cluster 0). The returned slices alias
// s.To1/s.To2 and are ordered subsequences of jobs.
//
//hetlb:noalloc
func SplitCLB2CScratch(s *Scratch, c core.Clustered, mA, mB int, jobs []int) (toA, toB []int) {
	if c.ClusterOf(mA) == c.ClusterOf(mB) {
		panic("pairwise: CLB2C on a pair requires machines of different clusters")
	}
	s.orderBy(core.ByRatio, c, 0, jobs)
	second := s.Sides(len(jobs))
	var l0, l1 core.Cost
	lo, hi := 0, len(jobs)-1
	for lo <= hi {
		head, tail := int(uint32(s.keys[lo])), int(uint32(s.keys[hi]))
		c0 := l0 + s.own[head]
		c1 := l1 + s.other[tail]
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
