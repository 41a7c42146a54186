package pairwise

import "hetlb/internal/core"

// The ordering kernels (CLB2C on a pair, Greedy Load Balancing and the
// largest-first split) need the pooled jobs in a cost order. Unless a union
// already arrives in ratio order (see rankedCosts), they read each job's
// costs once into the scratch, by input position, and order them with
// core.OrderJobs: packed keys, a radix presort on large unions and an exact
// insertion pass between neighbours whose keys tie. The kernels then decide
// a side per input position and Emit writes both sides in input order.

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
// split (core.BySize) of two machines of cluster own: each job, in order o,
// goes to the machine with the smaller accumulated cost, ties to the
// lower-indexed machine, whose side and load it returns first.
//
//hetlb:noalloc
func (s *Scratch) splitGreedy(o core.JobOrder, c core.Clustered, own int, jobs []int) (tLo, tHi []int, lLo, lHi core.Cost) {
	s.orderBy(o, c, own, jobs)
	second := s.Sides(len(jobs))
	for _, key := range s.keys {
		pos := int(uint32(key))
		if cost := s.own[pos]; lLo <= lHi {
			lLo += cost
		} else {
			second[pos] = true
			lHi += cost
		}
	}
	tLo, tHi = s.Emit(jobs)
	return tLo, tHi, lLo, lHi
}

// clb2c is CLB2C on a pair over jobs in any order: it orders them by ratio,
// walks the order from both ends as SplitCLB2CScratch describes, and
// returns the cluster-0 machine's side and the cluster-1 machine's, with
// their loads.
//
//hetlb:noalloc
func (s *Scratch) clb2c(c core.Clustered, jobs []int) (to0, to1 []int, l0, l1 core.Cost) {
	s.orderBy(core.ByRatio, c, 0, jobs)
	second := s.Sides(len(jobs))
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
	to0, to1 = s.Emit(jobs)
	return to0, to1, l0, l1
}

// inArgOrder leaves the loads of a split's two sides on s and returns the
// sides, a and b with loads la and lb, swapped into argument order when
// swap is set.
func (s *Scratch) inArgOrder(swap bool, a, b []int, la, lb core.Cost) ([]int, []int) {
	if swap {
		a, b, la, lb = b, a, lb, la
	}
	s.Load1, s.Load2 = la, lb
	return a, b
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
