package central

import (
	"math"
	"math/bits"
	"slices"

	"hetlb/internal/core"
)

// slot is one machine of a loserTree with its load. hi is the load with its
// sign bit flipped, so that unsigned order is the loads' order; lo is
// machine<<32 | leaf, the machine's id and its leaf, which gives the slot's
// path to the root.
type slot struct{ hi, lo uint64 }

// signBit flips a load's sign bit in and out of a slot's high word.
const signBit = 1 << 63

// loserTree is a tournament tree that finds the least-loaded of a set of
// distinct machines, ties to the lower index. Its leaves hold the machines
// in increasing index, and padded leaves that never win fill them up to a
// power of two P. Node k in [1, P) holds the loser of the match between its
// two subtrees, nodes 2k and 2k+1 (leaf l is node P+l), and node 0 the
// winner of the whole tree, so every leaf is in exactly one of the P slots,
// 16 bytes per padded leaf. The tree holds the loads itself: a placement on
// the winner updates it with raiseMin.
//
// A match compares the two loads alone and sends a tie to the left subtree:
// every machine there has a lower index than every machine in the right
// one, since the leaves increase, and a padded leaf, at the largest slot a
// machine can have, is right of every machine.
type loserTree []slot

// newLoserTree builds the tree of the given distinct machines at their
// loads in a, in place in the one array it returns. Machines listed out of
// increasing order are sorted in a copy first.
func newLoserTree(a *core.Assignment, machines []int) loserTree {
	m := len(machines)
	if m == 0 {
		return nil
	}
	if !slices.IsSorted(machines) {
		machines = slices.Clone(machines)
		slices.Sort(machines)
	}
	p := 1 << bits.Len(uint(m-1))
	t := make(loserTree, p)
	leaf := func(l int) slot {
		if l >= m {
			// A padded leaf's id is math.MaxUint32, above the most machines
			// a core.Assignment holds, math.MaxInt32.
			return slot{math.MaxUint64, math.MaxUint32<<32 | uint64(l)}
		}
		i := machines[l]
		return slot{uint64(a.Load(i)) ^ signBit, uint64(i)<<32 | uint64(l)}
	}
	if p == 1 {
		t[0] = leaf(0)
		return t
	}
	// Each node's slot first holds the winner of its subtree, built bottom
	// up. Then, top down, the winner of its two children's winners, which
	// still sit in their slots, is replaced by the other: its loser.
	child := func(c int) slot {
		if c >= p {
			return leaf(c - p)
		}
		return t[c]
	}
	for k := p - 1; k > 0; k-- {
		x, y := child(2*k), child(2*k+1)
		if y.hi < x.hi {
			x = y
		}
		t[k] = x
	}
	t[0] = t[1]
	for k := 1; k < p; k++ {
		x, y := child(2*k), child(2*k+1)
		if y.hi < x.hi {
			y = x
		}
		t[k] = y
	}
	return t
}

// min returns the least-loaded machine, the lowest-indexed among ties, and
// its load.
func (t loserTree) min() (machine int, load core.Cost) {
	return int(t[0].lo >> 32), core.Cost(t[0].hi ^ signBit)
}

// setLoads writes the load the tree holds for each of its machines into a:
// after CLB2C's walk, the start load plus every cost placed on it.
func (t loserTree) setLoads(a *core.Assignment) {
	for _, s := range t {
		if i := s.lo >> 32; i != math.MaxUint32 { // not a padded leaf
			a.SetLoad(int(i), core.Cost(s.hi^signBit))
		}
	}
}

// raiseMin sets the load of the least-loaded machine and replays its
// matches along the fixed path from its leaf to the root: the slot above
// each node c on that path holds the winner of c's sibling subtree, so each
// step keeps the loser there and carries the winner up. The sibling is the
// left subtree, which wins a tie, when c is odd, so a step is one 64-bit
// compare of the loads with c's low bit as the borrow in, and mask selects
// instead of a branch.
func (t loserTree) raiseMin(load core.Cost) {
	w := slot{uint64(load) ^ signBit, t[0].lo}
	for c := uint(uint32(w.lo)) + uint(len(t)); c > 1; c >>= 1 {
		s := t[c>>1]
		_, b := bits.Sub64(s.hi, w.hi, uint64(c&1)) // s wins: s.hi < w.hi + c&1
		mask := -b
		dhi, dlo := (s.hi^w.hi)&mask, (s.lo^w.lo)&mask
		t[c>>1] = slot{s.hi ^ dhi, s.lo ^ dlo}
		w = slot{w.hi ^ dhi, w.lo ^ dlo}
	}
	t[0] = w
}
