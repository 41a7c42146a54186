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
	finishTies(o, own, other, ids, keys)
	return keys, buf
}

// finishTies is OrderJobs' tie pass: an insertion sort with the exact order
// that moves a key only past neighbours whose images tie with it. Its
// common step compares a key with the one before and moves nothing, so the
// pass carries the costs of the key before from the previous step: a step
// reads one job's costs, not two.
//
//hetlb:noalloc
func finishTies(o JobOrder, own, other []Cost, ids []int, keys []uint64) {
	y := -1 // the position whose costs ya, yb hold
	var ya, yb Cost
	for k := 1; k < len(keys); k++ {
		key := keys[k]
		if keys[k-1]>>32 != key>>32 {
			continue
		}
		x := int(uint32(key))
		xa, xb := orderCosts(o, own, other, x)
		if p := int(uint32(keys[k-1])); p != y {
			y = p
			ya, yb = orderCosts(o, own, other, y)
		}
		if !precedes(o, ids, x, xa, xb, y, ya, yb) {
			y, ya, yb = x, xa, xb // keys[k] stays, the key before the next
			continue
		}
		// The key at y moves up to k and stays the carried one.
		keys[k] = keys[k-1]
		m := k - 1
		for ; m > 0 && keys[m-1]>>32 == key>>32; m-- {
			p := int(uint32(keys[m-1]))
			pa, pb := orderCosts(o, own, other, p)
			if !precedes(o, ids, x, xa, xb, p, pa, pb) {
				break
			}
			keys[m] = keys[m-1]
		}
		keys[m] = key
	}
}

// orderCosts returns what order o compares of the job at position p: its
// own and other cost for ByRatio, its own cost for BySize.
func orderCosts(o JobOrder, own, other []Cost, p int) (Cost, Cost) {
	if o == ByRatio {
		return own[p], other[p]
	}
	return own[p], 0
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

// precedes reports whether the job at position x, whose orderCosts are xa
// and xb, comes before the one at y, with ya and yb, in the exact order o.
func precedes(o JobOrder, ids []int, x int, xa, xb Cost, y int, ya, yb Cost) bool {
	var c int
	if o == ByRatio {
		c = CompareRatios(xa, xb, ya, yb)
	} else {
		c = cmp.Compare(ya, xa)
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
// exceeds it. The contents are unspecified, so a grown buffer is a fresh
// one, at least twice the old capacity, and nothing is copied: one
// allocation of the new size, where slices.Grow would also copy the old
// contents (and, built with the race detector, allocate its appended zeros
// a second time).
func Resize[E any](buf []E, n int) []E {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]E, n, max(n, 2*cap(buf)))
}
