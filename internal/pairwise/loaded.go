package pairwise

import "hetlb/internal/core"

// The *Loaded kernel variants account for pre-existing, non-movable load on
// each machine — in the dynamic simulator this is the remaining time of the
// job currently running (non-preemptible). The plain kernels are the
// base == 0 specialization up to the order of each side: the loaded kernels
// return every side in placement order (ratio order for Greedy Load
// Balancing, size order for the largest-first split, head then tail order
// for CLB2C), not input order, because the dynamic simulator runs a
// machine's pending jobs in list order.
// Canonicalization swaps the bases together with the machines, so the
// loaded kernels remain functions of the unordered pair.

// SplitBasicGreedyLoaded is AppendSplitBasicGreedy starting from loads
// base1 and base2.
func SplitBasicGreedyLoaded(m core.CostModel, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = SplitBasicGreedyLoaded(m, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	l1, l2 := base1, base2
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

// SplitSameCostLoaded is AppendSplitSameCost starting from loads base1 and
// base2.
func SplitSameCostLoaded(m core.CostModel, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = SplitSameCostLoaded(m, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	l1, l2 := base1, base2
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

// SplitGreedyLoadBalancingLoaded is SplitGreedyLoadBalancingScratch
// starting from loads base1 and base2.
func SplitGreedyLoadBalancingLoaded(c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: GreedyLoadBalancing requires machines of the same cluster")
	}
	return splitGreedyLoaded(ratioOrder, c, m1, m2, base1, base2, jobs)
}

// SplitLargestFirstLoaded is the largest-first split of
// SplitLargestFirstScratch starting from loads base1 and base2. DLBKC runs
// it within a cluster of the dynamic simulator.
func SplitLargestFirstLoaded(c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: a largest-first split requires machines of the same cluster")
	}
	return splitGreedyLoaded(sizeOrder, c, m1, m2, base1, base2, jobs)
}

// splitGreedyLoaded places the jobs in the order inOrder returns on the
// pair's cluster, each on the machine with the smaller load so far, ties to
// the lower-indexed machine.
func splitGreedyLoaded(inOrder func(core.Clustered, int, []int) []int, c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = splitGreedyLoaded(inOrder, c, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	own := c.ClusterOf(m1)
	l1, l2 := base1, base2
	for _, j := range inOrder(c, own, jobs) {
		cost := c.ClusterCost(own, core.JobOf(j))
		if l1 <= l2 {
			to1 = append(to1, j)
			l1 += cost
		} else {
			to2 = append(to2, j)
			l2 += cost
		}
	}
	return to1, to2
}

// SplitCLB2CLoaded is SplitCLB2CScratch starting from pre-existing loads
// baseA and baseB on mA and mB respectively.
func SplitCLB2CLoaded(c core.Clustered, mA, mB int, baseA, baseB core.Cost, jobs []int) (toA, toB []int) {
	if c.ClusterOf(mA) == c.ClusterOf(mB) {
		panic("pairwise: CLB2C on a pair requires machines of different clusters")
	}
	swapped := false
	m0, m1 := mA, mB
	b0, b1 := baseA, baseB
	if c.ClusterOf(m0) == 1 {
		m0, m1 = m1, m0
		b0, b1 = b1, b0
		swapped = true
	}
	sorted := ratioOrder(c, 0, jobs)
	var to0, to1 []int
	l0, l1 := b0, b1
	lo, hi := 0, len(sorted)-1
	for lo <= hi {
		jHead, jTail := sorted[lo], sorted[hi]
		c0 := l0 + c.ClusterCost(0, core.JobOf(jHead))
		c1 := l1 + c.ClusterCost(1, core.JobOf(jTail))
		if c0 <= c1 {
			to0 = append(to0, jHead)
			l0 = c0
			lo++
		} else {
			to1 = append(to1, jTail)
			l1 = c1
			hi--
		}
	}
	if swapped {
		return to1, to0
	}
	return to0, to1
}
