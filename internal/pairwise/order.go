package pairwise

import (
	"cmp"
	"math"
	"slices"

	"hetlb/internal/core"
)

// The ordering kernels (CLB2C on a pair, Greedy Load Balancing and the
// largest-first split) need the pooled jobs in a cost order. They read each
// job's costs once into the scratch and sort packed integer keys, not the
// jobs through a comparator that reads the costs again on every comparison:
//
//   - the key's high half is an order-preserving float32 image of what the
//     order compares (the ratio own/other, or the size), its low half the
//     job's input position, so one slices.Sort on uint64 keys presorts them;
//   - the image never inverts two jobs the exact order separates, but
//     distinct ratios or sizes can share it, so an insertion pass with the
//     exact integer order (index tie break) finishes the sort. The result is
//     the exact order whatever the floats do; the presort only makes the
//     pass linear in practice.
//
// The kernels then decide a side per input position and Emit writes both
// sides in input order.

// jobCosts is one pooled job's costs as an ordering kernel reads them: own
// on the pair's own cluster and other on the other cluster (ratio order), or
// own alone (size order).
type jobCosts struct {
	own, other core.Cost
}

// costVectors is implemented by clustered models that store each cluster's
// costs as one vector indexed by job (core.TwoCluster). orderBy indexes the
// vectors directly instead of calling ClusterCost per cost, which lets the
// CPU overlap the cache-missing loads of a large instance.
type costVectors interface {
	ClusterCosts(cluster int) []core.Cost
}

// order selects the exact order of orderBy.
type order uint8

const (
	// byRatio is increasing own/other (core.CompareRatios), index tie break.
	byRatio order = iota
	// bySize is decreasing own, index tie break.
	bySize
)

// ratioKey packs own/other for byRatio. Below 2^53 both costs are exact in
// float64, and the division and the float32 conversion round
// monotonically, so a smaller ratio never gets a larger key. A job priced 0
// on both sides sorts as ratio 1/1, as in core.CompareRatios.
func ratioKey(own, other core.Cost, pos int) uint64 {
	if own == 0 && other == 0 {
		own, other = 1, 1
	}
	return uint64(math.Float32bits(float32(float64(own)/float64(other))))<<32 | uint64(pos)
}

// sizeKey packs own for bySize: the float32 image of a non-negative cost
// grows with the cost, so its complement orders larger jobs first.
func sizeKey(own core.Cost, pos int) uint64 {
	return uint64(^math.Float32bits(float32(own)))<<32 | uint64(pos)
}

// orderBy gathers the pooled jobs' costs into s.costs (by input position)
// and leaves s.keys holding one key per job in the exact order o, so
// int(uint32(s.keys[k])) is the input position of the k-th job in that
// order (a union has fewer than 2^32 jobs). own is the pair's own cluster;
// bySize reads only its costs.
//
//hetlb:noalloc
func (s *Scratch) orderBy(o order, c core.Clustered, own int, jobs []int) {
	s.costs = resize(s.costs, len(jobs))
	s.keys = resize(s.keys, len(jobs))
	if v, ok := c.(costVectors); ok && o == byRatio {
		pOwn, pOther := v.ClusterCosts(own), v.ClusterCosts(1-own)
		for pos, j := range jobs {
			s.costs[pos] = jobCosts{pOwn[j], pOther[j]}
			s.keys[pos] = ratioKey(pOwn[j], pOther[j], pos)
		}
	} else if o == byRatio {
		for pos, j := range jobs {
			jc := jobCosts{c.ClusterCost(own, j), c.ClusterCost(1-own, j)}
			s.costs[pos] = jc
			s.keys[pos] = ratioKey(jc.own, jc.other, pos)
		}
	} else {
		for pos, j := range jobs {
			jc := jobCosts{own: c.ClusterCost(own, j)}
			s.costs[pos] = jc
			s.keys[pos] = sizeKey(jc.own, pos)
		}
	}
	slices.Sort(s.keys)
	// Insertion pass in the exact order: it moves only jobs whose keys
	// collided, so on presorted keys it costs one comparison per job.
	keys := s.keys
	for k := 1; k < len(keys); k++ {
		key := keys[k]
		x := int(uint32(key))
		m := k
		for m > 0 && s.before(o, jobs, x, int(uint32(keys[m-1]))) {
			keys[m] = keys[m-1]
			m--
		}
		keys[m] = key
	}
}

// before reports whether the job at input position x precedes the one at y
// in the exact order o.
func (s *Scratch) before(o order, jobs []int, x, y int) bool {
	cx, cy := s.costs[x], s.costs[y]
	var c int
	if o == byRatio {
		c = core.CompareRatios(cx.own, cx.other, cy.own, cy.other)
	} else {
		c = cmp.Compare(cy.own, cx.own)
	}
	if c != 0 {
		return c < 0
	}
	return jobs[x] < jobs[y]
}

// splitGreedy is Greedy Load Balancing (byRatio) and the largest-first split
// (bySize) of two machines of one cluster: each job, in order o, goes to the
// machine with the smaller accumulated cost, ties to the lower-indexed
// machine so the split is symmetric in its arguments.
//
//hetlb:noalloc
func (s *Scratch) splitGreedy(o order, c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	s.orderBy(o, c, c.ClusterOf(m1), jobs)
	second := s.Sides(len(jobs))
	var lLo, lHi core.Cost
	for _, key := range s.keys {
		pos := int(uint32(key))
		if cost := s.costs[pos].own; lLo <= lHi {
			lLo += cost
		} else {
			second[pos] = true
			lHi += cost
		}
	}
	tLo, tHi := s.Emit(jobs)
	if m1 > m2 {
		return tHi, tLo
	}
	return tLo, tHi
}

// ratioOrder returns jobs in increasing own/other cost ratio (index tie
// break) as a new slice: the placement order of the *Loaded kernels.
func ratioOrder(c core.Clustered, own int, jobs []int) []int {
	var s Scratch
	s.orderBy(byRatio, c, own, jobs)
	sorted := make([]int, len(jobs))
	for k, key := range s.keys {
		sorted[k] = jobs[uint32(key)]
	}
	return sorted
}
