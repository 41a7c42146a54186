package pairwise

import "hetlb/internal/core"

// The ordering kernels (CLB2C on a pair, Greedy Load Balancing and the
// largest-first split) need the pooled jobs in a cost order. They read each
// job's costs once into the scratch, by input position, and order them with
// core.OrderJobs: no sort at all for a union that arrives in order or in
// its group-reversed form (DLB2C's ratio-ordered lists), otherwise packed
// keys, a radix presort on large unions and an exact insertion pass between
// neighbours whose keys tie. The kernels then decide a side per input
// position and Emit writes both sides in input order.

// orderBy gathers the pooled jobs' costs into s.own and s.other (by input
// position) and leaves s.keys holding one key per job in the exact order o,
// so int(uint32(s.keys[k])) is the input position of the k-th job in that
// order (a union has fewer than 2^32 jobs). own is the pair's own cluster;
// core.BySize reads only its costs. The entries break ties: within a group
// of equal ratios a ratio-ordered list ranks jobs by index, so entries
// compare as their jobs do.
//
//hetlb:noalloc
func (s *Scratch) orderBy(o core.JobOrder, c core.Clustered, own int, jobs []int) {
	s.own = core.GatherCosts(c, own, jobs, s.own)
	if o == core.ByRatio {
		s.other = core.GatherCosts(c, 1-own, jobs, s.other)
	}
	s.keys, s.radix = core.OrderJobs(o, s.own, s.other, jobs, s.keys, s.radix)
}

// splitGreedy is Greedy Load Balancing (core.ByRatio) and the largest-first
// split (core.BySize) of two machines of one cluster: each job, in order o,
// goes to the machine with the smaller accumulated cost, ties to the
// lower-indexed machine so the split is symmetric in its arguments.
//
//hetlb:noalloc
func (s *Scratch) splitGreedy(o core.JobOrder, c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	s.orderBy(o, c, c.ClusterOf(m1), jobs)
	second := s.Sides(len(jobs))
	var lLo, lHi core.Cost
	for _, key := range s.keys {
		pos := int(uint32(key))
		if cost := s.own[pos]; lLo <= lHi {
			lLo += cost
		} else {
			second[pos] = true
			lHi += cost
		}
	}
	tLo, tHi := s.Emit(jobs)
	if m1 > m2 {
		return tHi, tLo
	}
	return tLo, tHi
}

// ratioOrder returns jobs in increasing own/other cost ratio (index tie
// break) as a new slice: the placement order of the ratio-ordered *Loaded
// kernels.
func ratioOrder(c core.Clustered, own int, jobs []int) []int {
	return jobsInOrder(core.ByRatio, c, own, jobs)
}

// sizeOrder returns jobs in decreasing cost on the given cluster (index tie
// break) as a new slice: the placement order of SplitLargestFirstLoaded.
func sizeOrder(c core.Clustered, cluster int, jobs []int) []int {
	return jobsInOrder(core.BySize, c, cluster, jobs)
}

func jobsInOrder(o core.JobOrder, c core.Clustered, own int, jobs []int) []int {
	var s Scratch
	s.orderBy(o, c, own, jobs)
	sorted := make([]int, len(jobs))
	for k, key := range s.keys {
		sorted[k] = jobs[uint32(key)]
	}
	return sorted
}
