package pairwise

import "hetlb/internal/core"

// The *Loaded kernel variants account for pre-existing, non-movable load on
// each machine — in the dynamic simulator this is the remaining time of the
// job currently running (non-preemptible). The plain Split* kernels are the
// base == 0 specialization up to the order of each side: the loaded kernels
// return every side in placement order (ratio order for Greedy Load
// Balancing, head then tail order for CLB2C), not input order, because the
// dynamic simulator runs a machine's pending jobs in list order.
// Canonicalization swaps the bases together with the machines, so the
// loaded kernels remain functions of the unordered pair.

// SplitBasicGreedyLoaded is SplitBasicGreedy starting from loads base1 and
// base2.
func SplitBasicGreedyLoaded(m core.CostModel, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = SplitBasicGreedyLoaded(m, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	l1, l2 := base1, base2
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

// SplitSameCostLoaded is SplitSameCost starting from loads base1 and base2.
func SplitSameCostLoaded(m core.CostModel, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = SplitSameCostLoaded(m, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	l1, l2 := base1, base2
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

// SplitGreedyLoadBalancingLoaded is SplitGreedyLoadBalancing starting from
// loads base1 and base2.
func SplitGreedyLoadBalancingLoaded(c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: GreedyLoadBalancing requires machines of the same cluster")
	}
	if m1 > m2 {
		to2, to1 = SplitGreedyLoadBalancingLoaded(c, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	own := c.ClusterOf(m1)
	l1, l2 := base1, base2
	for _, j := range ratioOrder(c, own, jobs) {
		cost := c.ClusterCost(own, j)
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

// SplitCLB2CLoaded is SplitCLB2C starting from pre-existing loads baseA and
// baseB on mA and mB respectively.
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
		c0 := l0 + c.ClusterCost(0, jHead)
		c1 := l1 + c.ClusterCost(1, jTail)
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
