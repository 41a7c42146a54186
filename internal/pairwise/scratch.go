package pairwise

import "hetlb/internal/core"

// Scratch holds the reusable buffers behind the allocation-free kernels and
// the pair step, protocol.Step. One Scratch serves one call chain at a time:
// the slices returned by the *Scratch kernels, by Protocol.SplitScratch and
// Transfer and by protocol.Step alias these buffers and stay valid only
// until the scratch is used again. The sequential engine owns one Scratch
// per engine; the sharded engine owns one per shard worker; each stability
// checker (protocol.Checker) and each message-passing or dynamic simulator
// owns one (a Scratch is not safe for concurrent use).
//
// Ownership rules:
//   - the caller owns the Scratch and may mutate (e.g. sort) the returned
//     slices, since they are its own memory;
//   - kernels may clobber every buffer except the one passed to them as the
//     jobs input — SplitScratch implementations write To1/To2, the ordering
//     state, the loads and (MJTB's) Diff1/Diff2 but never Union, so
//     `p.SplitScratch(s, i, j, s.Union)` is safe;
//   - a step's two input lists alias none of the buffers: protocol.Step
//     writes Union (when it splits), the kernels' buffers, Diff1/Diff2 and
//     the loads, and a Transfer writes To1/To2, Diff1/Diff2 and the loads,
//     while both read the inputs;
//   - buffers only grow, so a scratch reaches its high-water capacity after
//     a warm-up and performs no further allocations.
type Scratch struct {
	// Union is the pooled-jobs buffer, filled by MergeSortedInto and passed
	// to SplitScratch as input.
	Union []int
	// To1 and To2 receive the two sides of a split, each an ordered
	// subsequence of the split's input (the ordering kernels write them
	// through Emit, MergeSplitByType as it walks).
	To1, To2 []int
	// Diff1 and Diff2 receive the arrivals on a step's two sides, which
	// MergeSplitByType records as it moves jobs and protocol.Step and the
	// MinMove transfers otherwise write with AppendMoves: the moves the
	// sequential engine applies and the stability checker's verdict (a
	// pair is stable when both are empty).
	Diff1, Diff2 []int
	// Load1 and Load2 receive the new loads of a split's or a step's two
	// machines, in argument order: every kernel sums them as it places the
	// jobs, so the sharded session writes a pair's loads without reading a
	// cost.
	Load1, Load2 core.Cost

	// keys holds the ordering kernels' packed sort keys, one per pooled
	// job, in kernel order once sorted (see orderBy); radix is the second
	// buffer of core.OrderJobs' radix presort.
	keys, radix []uint64
	// own and other hold each pooled job's costs on the pair's own cluster
	// and on the other one, read once, by input position (Greedy Load
	// Balancing's cluster-1 walk reads them there too); MergeSplitByType
	// keeps its per-type loads of the two machines there instead.
	own, other []core.Cost
	// second marks, by input position, the jobs a kernel sends to its
	// second side (see Sides and Emit).
	second []bool
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
