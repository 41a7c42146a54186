package core

import (
	"cmp"
	"math"
	"slices"
)

// JobOrder names an exact job order of OrderJobs.
type JobOrder uint8

const (
	// ByRatio is increasing own/other cost ratio (CompareRatios, so a job
	// priced 0 on both sides counts as 1/1), ties by job index: the order
	// of CLB2C and Greedy Load Balancing.
	ByRatio JobOrder = iota
	// BySize is decreasing own cost, ties by job index: the largest-first
	// order of DLBKC's same-cluster split.
	BySize
)

// radixCutover is the job count from which OrderJobs presorts its keys with
// radix passes instead of slices.Sort. Below it the radix passes' fixed cost
// (a 256-bucket prefix sum per byte) outweighs the comparisons they save; on
// random ratio keys (2-vCPU Xeon) the two break even near 48 keys, and radix
// is 25% faster at 64. A 16-job union stays on slices.Sort.
const radixCutover = 64

// OrderJobs puts n jobs in the exact order o and returns their keys in that
// order: int(uint32(sorted[k])) is the position of the k-th job. The job at
// position p costs own[p] on the cluster the order is for and other[p] on
// the other one (BySize ignores other), and ids[p] is its index for the tie
// break (p itself when ids is nil). keys and buf are reused buffers, grown
// to n when short; the second result is the one OrderJobs did not return
// the keys in, for the caller to pass back next time.
//
// Jobs that arrive already in order o, or in its group-reversed form, are
// not sorted (see presorted): the engines keep DLB2C's job lists in the
// model's ratio order, so every union a DLB2C step pools is one or the
// other. Any other input is sorted.
//
// It sorts packed uint64 keys, not positions through a comparator that
// reads the costs again on every comparison:
//
//   - a key's high half is an order-preserving float32 image of what the
//     order compares (the ratio own/other, or the size), its low half the
//     position, so sorting keys by their high half, stably, presorts the
//     jobs: a stable LSD radix sort over the high 32 bits (skipping bytes
//     every key shares) from radixCutover keys on, slices.Sort below it
//     (positions increase, so both give the same order);
//   - the image never inverts two jobs the exact order separates, but
//     distinct ratios or sizes can share it, so an insertion pass with the
//     exact integer order finishes the sort. It compares only neighbours
//     whose images tie, since a job never has to pass one with a smaller
//     image.
//
// The costs must be non-negative and, for ByRatio, below 2^53 with every
// cross product CompareRatios forms inside an int64 (costs below 3.03e9,
// about 2^31.5, always are). There no image decreases along the exact
// order and CompareRatios is exact; outside it the order is undefined.
//
//hetlb:noalloc
func OrderJobs(o JobOrder, own, other []Cost, ids []int, keys, buf []uint64) (sorted, spare []uint64) {
	n := len(own)
	keys = Resize(keys, n)
	if o == ByRatio {
		other = other[:n]
	}
	if sorted, spare, ok := presorted(o, own, other, ids, keys, buf); ok {
		return sorted, spare
	}
	if o == ByRatio {
		for p, c := range own {
			keys[p] = ratioImage(c, other[p])<<32 | uint64(p)
		}
	} else {
		for p, c := range own {
			keys[p] = sizeImage(c)<<32 | uint64(p)
		}
	}
	if n < radixCutover {
		slices.Sort(keys)
	} else {
		buf = Resize(buf, n)
		keys, buf = radixSortHigh(keys, buf)
	}
	for k := 1; k < n; k++ {
		key := keys[k]
		m := k
		for m > 0 && keys[m-1]>>32 == key>>32 &&
			precedes(o, own, other, ids, int(uint32(key)), int(uint32(keys[m-1]))) {
			keys[m] = keys[m-1]
			m--
		}
		keys[m] = key
	}
	return keys, buf
}

// presorted recognizes, in one pass of exact comparisons between
// neighbours, jobs that are already in order o or in its group-reversed
// form: the groups of jobs that o ranks equal, in the reverse of order o,
// each group in increasing id order. The second is how a same-cluster pair
// on cluster 1 receives its union from job lists kept in the ratio order of
// cluster 0: decreasing p1/p0, ties by increasing index. On success it
// returns the positions in order o (keys in the first case, buf in the
// second, and the other buffer as spare), the result the sort would give:
// neighbours in order, or groups in reverse order with ids increasing
// within each, make the whole sequence, or its reversed groups, the one
// exact order. Equal ids fall back to the sort. keys must have length n.
//
//hetlb:noalloc
func presorted(o JobOrder, own, other []Cost, ids []int, keys, buf []uint64) (sorted, spare []uint64, ok bool) {
	n := len(own)
	dir, tied := direction(o, own, other, ids)
	switch {
	case dir == 1:
		for p := range keys[:n] {
			keys[p] = uint64(p)
		}
		return keys, buf, true
	case dir == -1 && !tied:
		// Every group is one job: the order is the input reversed.
		buf = Resize(buf, n)
		for k := range buf {
			buf[k] = uint64(n - 1 - k)
		}
		return buf, keys, true
	case dir == -1:
		// Emit the groups from the last to the first, each in increasing
		// position: a group starts where its first job and the one before
		// compare unequal.
		buf = Resize(buf, n)
		out, end := 0, n
		for start := n - 1; start >= 0; start-- {
			if start > 0 && tiesPrevious(o, own, other, start) {
				continue
			}
			for p := start; p < end; p++ {
				buf[out] = uint64(p)
				out++
			}
			end = start
		}
		return buf, keys, true
	}
	return keys, buf, false
}

// direction reports whether the jobs are in order o (1), in its
// group-reversed form (-1) or neither (0), comparing each neighbour pair
// exactly once: by their ratios or sizes, and by id when the order ties
// them; tied reports whether any neighbours tie. It stops at the first
// neighbour pair that rules both forms out, so unordered input costs a few
// comparisons.
//
//hetlb:noalloc
func direction(o JobOrder, own, other []Cost, ids []int) (dir int, tied bool) {
	n := len(own)
	if n < 2 {
		return 1, false
	}
	if o == ByRatio {
		return ratioDirection(own, other[:n], ids)
	}
	for p := 1; p < n; p++ {
		d := cmp.Compare(own[p], own[p-1]) // -1: the larger size first, in order
		switch {
		case d == 0:
			if ids != nil && ids[p-1] >= ids[p] {
				return 0, true
			}
			tied = true
		case dir == 0:
			dir = d
		case d != dir:
			return 0, tied
		}
	}
	if dir == 0 {
		return 1, tied // one group: in order when its ids increase
	}
	return -dir, tied
}

// ratioDirection is direction for the ratio order, len(other) = len(own) ≥
// 2. It carries the previous job's ratio a/b from one neighbour pair to the
// next and compares them by the cross products of CompareRatios, a job free
// on both clusters counting as 1/1: the loop the engines' ratio-ordered
// unions run, so it keeps few values live.
//
//hetlb:noalloc
func ratioDirection(own, other []Cost, ids []int) (dir int, tied bool) {
	a, b := own[0], other[0]
	if a|b == 0 {
		a, b = 1, 1
	}
	for p := 1; p < len(own); p++ {
		x, y := own[p], other[p]
		if x|y == 0 {
			x, y = 1, 1
		}
		l, r := a*y, x*b
		a, b = x, y
		d := 1 // l > r: decreasing, reversed
		switch {
		case l < r:
			d = -1 // increasing, in order
		case l == r:
			if ids != nil && ids[p-1] >= ids[p] {
				return 0, true
			}
			tied = true
			continue
		}
		if dir == 0 {
			dir = d
		} else if d != dir {
			return 0, tied
		}
	}
	if dir == 0 {
		return 1, tied // one group: in order when its ids increase
	}
	return -dir, tied
}

// tiesPrevious reports whether order o ranks the jobs at positions p-1 and
// p equal.
func tiesPrevious(o JobOrder, own, other []Cost, p int) bool {
	if o == ByRatio {
		return CompareRatios(own[p-1], other[p-1], own[p], other[p]) == 0
	}
	return own[p-1] == own[p]
}

// ratioImage is the order-preserving float32 image of own/other. Below 2^53
// both costs are exact in float64, and the division and the float32
// conversion round monotonically, so a smaller ratio never gets a larger
// image. A job priced 0 on both sides is ratio 1/1, as in CompareRatios.
func ratioImage(own, other Cost) uint64 {
	if own == 0 && other == 0 {
		own, other = 1, 1
	}
	return uint64(math.Float32bits(float32(float64(own) / float64(other))))
}

// sizeImage is the image of own for BySize: the float32 image of a
// non-negative cost grows with the cost, so its complement puts larger jobs
// first.
func sizeImage(own Cost) uint64 {
	return uint64(^math.Float32bits(float32(own)))
}

// precedes reports whether the job at position x comes before the one at y
// in the exact order o.
func precedes(o JobOrder, own, other []Cost, ids []int, x, y int) bool {
	var c int
	if o == ByRatio {
		c = CompareRatios(own[x], other[x], own[y], other[y])
	} else {
		c = cmp.Compare(own[y], own[x])
	}
	if c != 0 {
		return c < 0
	}
	if ids == nil {
		return x < y
	}
	return ids[x] < ids[y]
}

// radixSortHigh sorts keys stably by their high 32 bits, one counting pass
// per byte from the least significant, skipping a byte every key shares.
// buf must be as long as keys; the sorted keys come back in one of the two
// and the other is returned as spare.
//
//hetlb:noalloc
func radixSortHigh(keys, buf []uint64) (sorted, spare []uint64) {
	var counts [4][256]uint32 // keys has fewer than 2^32 entries
	for _, k := range keys {
		counts[0][byte(k>>32)]++
		counts[1][byte(k>>40)]++
		counts[2][byte(k>>48)]++
		counts[3][byte(k>>56)]++
	}
	for d := range counts {
		shift := 32 + 8*uint(d)
		c := &counts[d]
		if int(c[byte(keys[0]>>shift)]) == len(keys) {
			continue
		}
		var next uint32
		for b, cnt := range c {
			c[b] = next
			next += cnt
		}
		for _, k := range keys {
			b := byte(k >> shift)
			buf[c[b]] = k
			c[b]++
		}
		keys, buf = buf, keys
	}
	return keys, buf
}

// CostVectors is implemented by clustered models that store each cluster's
// costs as one vector indexed by job (TwoCluster). GatherCosts indexes the
// vectors directly instead of calling ClusterCost per cost, which lets the
// CPU overlap the cache-missing loads of a large instance.
type CostVectors interface {
	ClusterCosts(cluster int) []Cost
}

// GatherCosts returns the costs of jobs on the given cluster by position,
// costs[p] being that of job JobOf(jobs[p]), in buf resized to len(jobs):
// the own and other vectors OrderJobs takes. jobs may be job-list entries
// or plain job indices.
//
//hetlb:noalloc
func GatherCosts(c Clustered, cluster int, jobs []int, buf []Cost) []Cost {
	buf = Resize(buf, len(jobs))
	if v, ok := c.(CostVectors); ok {
		costs := v.ClusterCosts(cluster)
		for p, j := range jobs {
			buf[p] = costs[uint32(j)]
		}
	} else {
		for p, j := range jobs {
			buf[p] = c.ClusterCost(cluster, JobOf(j))
		}
	}
	return buf
}

// Resize returns buf with length n, growing its capacity only when n
// exceeds it. The contents are unspecified.
func Resize[E any](buf []E, n int) []E {
	return slices.Grow(buf[:0], n)[:n]
}
