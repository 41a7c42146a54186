package pairwise

import (
	"slices"

	"hetlb/internal/core"
)

// The ranked walks take a union pooled from DLB2C's lists, which are kept
// in the model's ratio order (protocol.DLB2C.ListOrder), as it stands: no
// check of its order, no keys or Emit. Each reads the costs straight from
// the model's cost vectors.

// rankedCosts returns the model's cluster-0 and cluster-1 cost vectors when
// union can take a ranked walk: its entries carry ranks, and the model
// keeps its costs as vectors (core.CostVectors, as a core.TwoCluster, the
// one model DLB2C ranks its lists on, does). The ranks must be the model's
// ratio order (core.TwoCluster.RatioOrder). A union sorted by entry carries
// ranks when its last entry, its largest, does (entry>>32 is not 0): no
// entry in increasing job order does, and in a list order every entry but
// the one of rank 0 does, so only a union of that job alone, which every
// path splits alike, is taken as job order.
//
//hetlb:noalloc
func rankedCosts(c core.Clustered, union []int) (p0, p1 []core.Cost, ok bool) {
	if len(union) == 0 || uint64(union[len(union)-1])>>32 == 0 {
		return nil, nil, false
	}
	v, ok := c.(core.CostVectors)
	if !ok {
		return nil, nil, false
	}
	return v.ClusterCosts(0), v.ClusterCosts(1), true
}

// cutRanked is CLB2C on a pair over a union in ratio order, costs p0 on
// cluster 0 and p1 on cluster 1: the two-ended walk commits the head job to
// the cluster-0 machine or the tail job to the cluster-1 machine, whichever
// finishes earlier (ties to cluster 0), so the cluster-0 machine ends with
// a prefix of the union and the cluster-1 machine with the rest. It copies
// the two runs to s.To1 (cluster 0) and s.To2 (cluster 1) and returns them
// with their loads.
//
//hetlb:noalloc
func (s *Scratch) cutRanked(p0, p1 []core.Cost, union []int) (to0, to1 []int, l0, l1 core.Cost) {
	lo, hi := 0, len(union)-1
	for lo <= hi {
		c0 := l0 + p0[uint32(union[lo])]
		c1 := l1 + p1[uint32(union[hi])]
		if c0 <= c1 {
			l0 = c0
			lo++
		} else {
			l1 = c1
			hi--
		}
	}
	s.To1 = append(s.To1[:0], union[:lo]...)
	s.To2 = append(s.To2[:0], union[lo:]...)
	return s.To1, s.To2, l0, l1
}

// greedyForward is Greedy Load Balancing on cluster 0 over a union in ratio
// order, the kernel's order there, with costs p0: one walk gives each job
// to the machine with the smaller load so far, ties to the lower-indexed
// one, whose side and load it returns first.
//
//hetlb:noalloc
func (s *Scratch) greedyForward(p0 []core.Cost, union []int) (_, _ []int, lLo, lHi core.Cost) {
	tLo, tHi := s.To1[:0], s.To2[:0]
	for _, entry := range union {
		if c := p0[uint32(entry)]; lLo <= lHi {
			lLo += c
			tLo = append(tLo, entry)
		} else {
			lHi += c
			tHi = append(tHi, entry)
		}
	}
	s.To1, s.To2 = tLo, tHi
	return tLo, tHi, lLo, lHi
}

// greedyGroupsReversed is Greedy Load Balancing on cluster 1 over a union in
// ratio order, costs p0 and p1, as greedyForward places jobs. Cluster 1's
// order is increasing p1/p0, ties by index: the union's tie groups from
// last to first, each in increasing entry order. It first reads both costs
// of every job into the scratch, by union position: a loop of loads alone,
// so on a model too large for the cache their misses overlap. The walk then
// finds each group's start by exact comparisons between neighbours
// (core.CompareRatios), places the group, writes the sides in walk order
// and puts them in entry order.
//
//hetlb:noalloc
func (s *Scratch) greedyGroupsReversed(p0, p1 []core.Cost, union []int) (_, _ []int, lLo, lHi core.Cost) {
	c0, c1 := core.Resize(s.other, len(union)), core.Resize(s.own, len(union))
	s.own, s.other = c1, c0
	for k, entry := range union {
		c0[k], c1[k] = p0[uint32(entry)], p1[uint32(entry)]
	}
	tLo, tHi := s.To1[:0], s.To2[:0]
	tied := false
	for end := len(union); end > 0; {
		start := end - 1
		for start > 0 && core.CompareRatios(c0[start-1], c1[start-1], c0[start], c1[start]) == 0 {
			start--
		}
		tied = tied || end-start > 1
		for k := start; k < end; k++ {
			if c := c1[k]; lLo <= lHi {
				lLo += c
				tLo = append(tLo, union[k])
			} else {
				lHi += c
				tHi = append(tHi, union[k])
			}
		}
		end = start
	}
	inEntryOrder(tLo, tied)
	inEntryOrder(tHi, tied)
	s.To1, s.To2 = tLo, tHi
	return tLo, tHi, lLo, lHi
}

// inEntryOrder sorts a side of the cluster-1 walk in place. The walk
// visits the tie groups from last to first, each in increasing entry order,
// so reversing the side leaves each group's part in decreasing entry order
// and the parts in increasing order. Without ties every part is one job and
// that sorts it; otherwise the side's maximal decreasing runs are the parts,
// and reversing each of them sorts it.
//
//hetlb:noalloc
func inEntryOrder(side []int, tied bool) {
	slices.Reverse(side)
	for start := 0; tied && start < len(side); {
		end := start + 1
		for end < len(side) && side[end-1] > side[end] {
			end++
		}
		slices.Reverse(side[start:end])
		start = end
	}
}
