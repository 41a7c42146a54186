package pairwise

import (
	"slices"

	"hetlb/internal/core"
)

// The *Loaded forms account for pre-existing, non-movable load on each
// machine — in the dynamic simulator this is the remaining time of the job
// currently running (non-preemptible). They run the ordering kernels' keys
// path from the two start loads on a fresh Scratch, so at zero bases they
// place every job where the plain kernels do. They return each side in
// placement order (ratio order for Greedy Load Balancing, size order for
// the largest-first split, head then tail order for CLB2C), not input
// order, because the dynamic simulator runs a machine's pending jobs in
// list order. BasicGreedy and the same-cost greedy place jobs in input
// order, so their Append forms take the start loads themselves.
// Canonicalization swaps the bases together with the machines, so the
// loaded kernels remain functions of the unordered pair.

// SplitGreedyLoadBalancingLoaded is SplitGreedyLoadBalancingScratch
// starting from loads base1 and base2.
func SplitGreedyLoadBalancingLoaded(c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: GreedyLoadBalancing requires machines of the same cluster")
	}
	return splitGreedyLoaded(core.ByRatio, c, m1, m2, base1, base2, jobs)
}

// SplitLargestFirstLoaded is the largest-first split of
// SplitLargestFirstScratch starting from loads base1 and base2. DLBKC runs
// it within a cluster of the dynamic simulator.
func SplitLargestFirstLoaded(c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: a largest-first split requires machines of the same cluster")
	}
	return splitGreedyLoaded(core.BySize, c, m1, m2, base1, base2, jobs)
}

// splitGreedyLoaded runs splitGreedy in order o from the two bases, the
// lower-indexed machine first, and returns both sides in placement order.
func splitGreedyLoaded(o core.JobOrder, c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = splitGreedyLoaded(o, c, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	var s Scratch
	s.splitGreedy(o, c, c.ClusterOf(m1), base1, base2, jobs)
	return s.placed(jobs)
}

// SplitCLB2CLoaded is SplitCLB2CScratch starting from pre-existing loads
// baseA and baseB on mA and mB respectively.
func SplitCLB2CLoaded(c core.Clustered, mA, mB int, baseA, baseB core.Cost, jobs []int) (toA, toB []int) {
	if c.ClusterOf(mA) == c.ClusterOf(mB) {
		panic("pairwise: CLB2C on a pair requires machines of different clusters")
	}
	swapped := c.ClusterOf(mA) == 1
	if swapped {
		baseA, baseB = baseB, baseA
	}
	var s Scratch
	s.clb2c(c, baseA, baseB, jobs)
	to0, to1 := s.placed(jobs)
	slices.Reverse(to1) // the tail side is placed from the end of the order
	if swapped {
		return to1, to0
	}
	return to0, to1
}

// placed reads the sides of the last splitGreedy or clb2c call off the
// scratch's key order and side marks: the jobs of each side in key order.
// It rewrites the two sides Emit left in To1 and To2, so it fills their
// buffers without growing them.
func (s *Scratch) placed(jobs []int) (first, second []int) {
	first, second = s.To1[:0], s.To2[:0]
	for _, key := range s.keys {
		if pos := uint32(key); s.second[pos] {
			second = append(second, jobs[pos])
		} else {
			first = append(first, jobs[pos])
		}
	}
	return first, second
}
