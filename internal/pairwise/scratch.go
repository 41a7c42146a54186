package pairwise

import "hetlb/internal/core"

// Scratch holds the reusable buffers behind the allocation-free kernel and
// balancing variants. One Scratch serves one call chain at a time: the
// slices returned by the *Scratch kernels and by Protocol.SplitScratch alias
// these buffers and stay valid only until the scratch is used again. The
// sequential engine owns one Scratch per engine; the sharded engine owns one
// per shard worker; each stability checker (protocol.Checker) and each
// message-passing or dynamic simulator owns one (a Scratch is not safe for
// concurrent use).
//
// Ownership rules:
//   - the caller owns the Scratch and may mutate (e.g. sort) the returned
//     slices, since they are its own memory;
//   - kernels may clobber every buffer except the one passed to them as the
//     jobs input — SplitScratch implementations write To1/To2, the ordering
//     state and the buckets but never Union, so
//     `p.SplitScratch(s, i, j, s.Union)` is safe;
//   - buffers only grow, so a scratch reaches its high-water capacity after
//     a warm-up and performs no further allocations.
type Scratch struct {
	// Union is the pooled-jobs buffer, filled by MergeSortedInto and passed
	// to SplitScratch as input.
	Union []int
	// To1 and To2 receive the two sides of a split, each an ordered
	// subsequence of the split's input (the ordering kernels and MJTB write
	// them through Emit).
	To1, To2 []int
	// Side1 and Side2 hold the pair's current sides for placement-aware
	// (min-move) balancing, as the input of Protocol.BalanceSides, which
	// writes neither.
	Side1, Side2 []int
	// Diff1 and Diff2 receive the arrived-job sets of a step's two sides
	// (AppendDiff output): the moves the sequential engine applies and the
	// O(moved) load deltas of a sharded session.
	Diff1, Diff2 []int

	// keys holds the ordering kernels' packed sort keys, one per pooled
	// job, in kernel order once sorted (see orderBy); radix is the second
	// buffer of core.OrderJobs' radix presort.
	keys, radix []uint64
	// own and other hold each pooled job's costs on the pair's own cluster
	// and on the other one, read once, by input position.
	own, other []core.Cost
	// second marks, by input position, the jobs a kernel sends to its
	// second side (see Sides and Emit).
	second []bool
	// buckets are MJTB's per-type buckets of input positions.
	buckets [][]int
}

// Sides returns the side marks for n pooled jobs, all cleared (every job on
// the first side), reusing prior capacity. A kernel sets the mark of each
// input position whose job goes to the second side, then calls Emit.
//
//hetlb:noalloc
func (s *Scratch) Sides(n int) []bool {
	s.second = core.Resize(s.second, n)
	clear(s.second)
	return s.second
}

// Emit writes the pooled jobs to To1 and To2 by the marks of the last Sides
// call, in input order, and returns the two sides. Callers pass the union
// sorted by entry, so both sides come out sorted by entry too.
//
//hetlb:noalloc
func (s *Scratch) Emit(jobs []int) (to1, to2 []int) {
	first, second := s.To1[:0], s.To2[:0]
	for pos, j := range jobs {
		if s.second[pos] {
			second = append(second, j)
		} else {
			first = append(first, j)
		}
	}
	s.To1, s.To2 = first, second
	return first, second
}

// Buckets returns k empty per-type buckets, reusing prior capacity. The
// returned slice shares its backing array with the scratch, so growth of an
// individual bucket (buckets[t] = append(buckets[t], ...)) is retained for
// the next call.
//
//hetlb:noalloc
func (s *Scratch) Buckets(k int) [][]int {
	if cap(s.buckets) < k {
		next := make([][]int, k) //hetlb:alloc-ok amortized warm-up growth: the bucket table reaches its high-water k and never reallocates
		copy(next, s.buckets[:cap(s.buckets)])
		s.buckets = next
	}
	s.buckets = s.buckets[:k]
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	return s.buckets
}
