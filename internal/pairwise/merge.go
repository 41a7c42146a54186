package pairwise

import "slices"

// The walks below are branch-free. The heads of two job lists interleave at
// random, so a branch on their comparison would mispredict about every other
// entry. Each step instead picks the smaller head with a conditional move
// (min) or writes its candidate unconditionally, and advances its indices
// by comparison results (b2i), into a destination grown once to its largest
// possible length.

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// read, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MergeSortedInto appends the sorted merge of a and b (each sorted
// ascending) to dst and returns the extended slice. It is the pooling step
// of protocol.Step's merge-and-split path: each machine keeps its job list
// sorted, so the union of a pair is a linear merge into the step's scratch,
// not a concatenate-and-sort.
//
//hetlb:noalloc
func MergeSortedInto(dst, a, b []int) []int {
	n := len(dst)
	dst = slices.Grow(dst, len(a)+len(b))[:n+len(a)+len(b)]
	out := dst[n:]
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		va, vb := a[x], b[y]
		out[x+y] = min(va, vb)
		fromA := b2i(va < vb)
		x += fromA
		y += 1 - fromA
	}
	copy(out[x+y:], a[x:])
	copy(out[len(a)+y:], b[y:])
	return dst
}

// AppendDiff appends to dst the elements of new that are absent from old
// (both sorted ascending, each occurrence in old cancelling one in new) and
// returns the extended slice: the jobs that arrived on one side of a pair
// step, that side alone (AppendMoves finds both sides' arrivals in one
// walk). A side the step left as it was appends nothing and costs one
// comparison of the two lists.
//
//hetlb:noalloc
func AppendDiff(dst, old, new []int) []int {
	if slices.Equal(old, new) {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, len(new))[:n+len(new)]
	out := dst[n:]
	x, y, k := 0, 0, 0
	for x < len(old) && y < len(new) {
		o, v := old[x], new[y]
		out[k] = v
		k += b2i(v < o)
		x += b2i(o <= v)
		y += b2i(v <= o)
	}
	k += copy(out[k:], new[y:])
	return dst[:n+k]
}

// AppendMoves appends to arrived the elements of new absent from old, and
// to departed the elements of old absent from new (both sorted ascending,
// with AppendDiff's multiset semantics), and returns both extended slices.
// It is AppendDiff in both directions in one walk: protocol.Step's
// merge-and-split path and the MinMove transfers call it on side i's old
// and new lists and write the results to Scratch.Diff1 and Diff2. A step
// conserves the pair's union, so i's departures are exactly j's arrivals,
// and the appended counts sum to the step's move count. The sequential
// engine moves exactly the arrivals in its assignment. A step that left i's
// list as it was, and so j's too, appends nothing and costs one comparison
// of the two lists, which is most of what a stability check pays per
// verified pair.
//
//hetlb:noalloc
func AppendMoves(arrived, departed, old, new []int) ([]int, []int) {
	if slices.Equal(old, new) {
		return arrived, departed
	}
	na, nd := len(arrived), len(departed)
	arrived = slices.Grow(arrived, len(new))[:na+len(new)]
	departed = slices.Grow(departed, len(old))[:nd+len(old)]
	in, out := arrived[na:], departed[nd:]
	x, y, ki, ko := 0, 0, 0, 0
	for x < len(old) && y < len(new) {
		o, v := old[x], new[y]
		in[ki] = v
		out[ko] = o
		ki += b2i(v < o)
		ko += b2i(o < v)
		x += b2i(o <= v)
		y += b2i(v <= o)
	}
	ki += copy(in[ki:], new[y:])
	ko += copy(out[ko:], old[x:])
	return arrived[:na+ki], departed[:nd+ko]
}
