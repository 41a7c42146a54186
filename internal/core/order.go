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
// (24 KB of counts to clear and prefix sums over 5,120 buckets) outweighs
// the comparisons they save. On ratio keys of costs U[1,1000] (2-vCPU Xeon
// VM, go1.24.0, 123 interleaved rounds per count) the two broke even near
// 320 keys in the fastest rounds (3.6 µs for the radix against 4.1 µs for
// slices.Sort at 384 keys) and near 550 in the median rounds of an hour
// when the host was busier and the radix slowed more than the sort (8.6
// against 7.3 µs at 448 keys, 12.7 against 15.9 µs at 768); the cutover
// sits between the two.
const radixCutover = 448

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
//     jobs: a stable LSD radix sort over the high 32 bits (skipping digits
//     every key shares) from radixCutover keys on, slices.Sort below it
//     (positions increase, so both give the same order);
//   - the image never inverts two jobs the exact order separates, but
//     distinct ratios or sizes can share it, so an insertion pass with the
//     exact integer order (finishTies) finishes the sort. It compares only
//     neighbours whose images tie, since a job never has to pass one with
//     a smaller image;
//   - below exact-image bounds no two distinct ratios or sizes share an
//     image: every cost below 2^11 for ByRatio (two distinct ratios a/b and
//     c/d with terms up to B differ relatively by at least 1/B², 2^-22 at
//     B = 2^11, more than float32's relative spacing of 2^-23; 0/0 counts
//     as 1/1, a/0 is +Inf and 0/b is 0 there too), every cost below 2^24
//     for BySize (float32 holds every integer up to 2^24). There a tie of
//     images is a tie of the exact order, which the ids break; when the ids
//     also ascend with the positions (nil ids do), the presort has already
//     left every tie group in id order, and OrderJobs skips the tie pass.
//     It ORs every cost into one word as it builds the keys and compares
//     that word as unsigned, so a negative cost, outside the domain below,
//     takes the tie pass.
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
	var costBits Cost // every cost ORed: below a power of two iff all are
	bound := sizeExactBound
	if o == ByRatio {
		bound = ratioExactBound
		other = other[:n]
		for p, c := range own {
			d := other[p]
			costBits |= c | d
			keys[p] = ratioImage(c, d)<<32 | uint64(p)
		}
	} else {
		for p, c := range own {
			costBits |= c
			keys[p] = sizeImage(c)<<32 | uint64(p)
		}
	}
	if n < radixCutover {
		slices.Sort(keys)
	} else {
		buf = Resize(buf, n)
		keys, buf = radixSortHigh(keys, buf)
	}
	if uint64(costBits) >= bound || !slices.IsSorted(ids) {
		finishTies(o, own, other, ids, keys)
	}
	return keys, buf
}

// The exact-image bounds of OrderJobs: below them, distinct ratios (every
// cost below ratioExactBound) or distinct sizes (below sizeExactBound) have
// distinct float32 images. TestRatioImagesExactBelowBound enumerates every
// ratio with terms below ratioExactBound in exact order.
const (
	ratioExactBound uint64 = 1 << 11
	sizeExactBound  uint64 = 1 << 24
)

// finishTies is OrderJobs' tie pass: an insertion sort with the exact order
// that moves a key only past neighbours whose images tie with it. OrderJobs
// runs it only where images can tie between distinct ratios or sizes, or
// where the ids do not ascend with the positions. Its common step compares
// a key with the one before and moves nothing, so the pass carries the
// costs of the key before from the previous step: a step reads one job's
// costs, not two.
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

// radixBits is the width of a digit of radixSortHigh, whose three counting
// passes of 11, 11 and 10 bits cover a key's high 32 bits: one pass fewer
// than 8-bit digits take, for a prefix sum over up to 2,048 buckets per
// pass instead of 256 (radixCutover).
const radixBits = 11

// radixSortHigh sorts keys stably by their high 32 bits, one counting pass
// per radixBits-bit digit from the least significant, skipping a digit
// every key shares. buf must be as long as keys; the sorted keys come back
// in one of the two and the other is returned as spare.
//
//hetlb:noalloc
func radixSortHigh(keys, buf []uint64) (sorted, spare []uint64) {
	const mask = 1<<radixBits - 1
	var counts [3][1 << radixBits]uint32 // keys has fewer than 2^32 entries
	for _, k := range keys {
		counts[0][k>>32&mask]++
		counts[1][k>>(32+radixBits)&mask]++
		counts[2][k>>(32+2*radixBits)&mask]++
	}
	for d := range counts {
		shift := 32 + radixBits*uint(d)
		c := &counts[d]
		if int(c[keys[0]>>shift&mask]) == len(keys) {
			continue
		}
		var next uint32
		for b, cnt := range c[:1<<min(radixBits, 64-shift)] { // the top digit has 10 bits
			c[b] = next
			next += cnt
		}
		for _, k := range keys {
			b := k >> shift & mask
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
