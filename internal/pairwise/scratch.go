package pairwise

// Scratch holds the reusable buffers behind the allocation-free kernel and
// balancing variants. One Scratch serves one call chain at a time: the
// slices returned by the *Scratch kernels and by Protocol.SplitScratch alias
// these buffers and stay valid only until the scratch is used again. The
// sequential engine owns one Scratch per engine; the sharded engine owns one
// per shard worker (a Scratch is not safe for concurrent use).
//
// Ownership rules:
//   - the caller owns the Scratch and may mutate (e.g. sort) the returned
//     slices, since they are its own memory;
//   - kernels may clobber every buffer except the one passed to them as the
//     jobs input — SplitScratch implementations write To1/To2/Sorted and the
//     buckets but never Union, so `p.SplitScratch(s, i, j, s.Union)` is safe;
//   - buffers only grow, so a scratch reaches its high-water capacity after
//     a warm-up and performs no further allocations.
type Scratch struct {
	// Union is the pooled-jobs buffer, filled by AppendUnion (or a merge in
	// the sharded engine) and passed to SplitScratch as input.
	Union []int
	// To1 and To2 receive the two sides of a split.
	To1, To2 []int
	// Sorted is the kernel-internal ordering buffer (ratio or LPT order).
	Sorted []int
	// Side1 and Side2 hold the pair's current sides for placement-aware
	// (min-move) balancing.
	Side1, Side2 []int
	// Diff1 and Diff2 receive the arrived-job sets of a session's two sides
	// (AppendDiff output), which drive O(moved) load-delta updates in the
	// sharded engine.
	Diff1, Diff2 []int

	buckets [][]int // per-type buckets for MJTB
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
