package pairwise

import "slices"

// MergeSortedInto appends the sorted merge of a and b (each sorted
// ascending) to dst and returns the extended slice. It is the pooling step
// of protocol.Step's merge-and-split path: each machine keeps its job list
// sorted, so the union of a pair is a linear merge into the step's scratch,
// not a concatenate-and-sort.
//
//hetlb:noalloc
func MergeSortedInto(dst, a, b []int) []int {
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		if a[x] < b[y] {
			dst = append(dst, a[x])
			x++
		} else {
			dst = append(dst, b[y])
			y++
		}
	}
	dst = append(dst, a[x:]...)
	return append(dst, b[y:]...)
}

// AppendDiff appends to dst the elements of new that are absent from old
// (both sorted ascending) and returns the extended slice — the jobs that
// arrived on this side of a pair step, which protocol.Step's
// merge-and-split path and the MinMove transfers write to Scratch.Diff1
// and Diff2. Summed over both sides of a session, the appended counts are
// the session's move count: the union is conserved, so every change of the
// partition shows up as an arrival. The sequential engine moves exactly the
// arrivals in its assignment. A converged step appends nothing and costs
// one comparison of the two lists, which is most of what a stability check
// pays per verified pair.
//
//hetlb:noalloc
func AppendDiff(dst, old, new []int) []int {
	if slices.Equal(old, new) {
		return dst
	}
	x := 0
	for _, v := range new {
		for x < len(old) && old[x] < v {
			x++
		}
		if x < len(old) && old[x] == v {
			x++
		} else {
			dst = append(dst, v)
		}
	}
	return dst
}
