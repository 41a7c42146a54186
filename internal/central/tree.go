package central

import (
	"math"
	"math/bits"

	"hetlb/internal/core"
)

// slot is one machine of a loserTree with its load: the unsigned 128-bit
// number hi<<64 | lo. hi is the load with its sign bit flipped, so that
// unsigned order is the loads' order; lo is machine<<32 | leaf, so of two
// machines at one load the lower-indexed one is the smaller slot, whatever
// their leaves, and the leaf gives the slot's path to the root.
type slot struct{ hi, lo uint64 }

// signBit flips a load's sign bit in and out of a slot's high word.
const signBit = 1 << 63

// less reports whether x is the smaller slot: the borrow of x - y through
// the low word into the high word.
func less(x, y slot) bool {
	_, b := bits.Sub64(x.lo, y.lo, 0)
	_, b = bits.Sub64(x.hi, y.hi, b)
	return b != 0
}

// loserTree is a tournament tree that finds the least-loaded of a set of
// distinct machines, ties to the lower index. Leaf l is the l-th machine of
// the list the tree was built from, and padded leaves that never win fill
// the leaves up to a power of two P. Node k in [1, P) holds the loser of
// the match between its two subtrees, nodes 2k and 2k+1 (leaf l is node
// P+l), and node 0 the winner of the whole tree, so every leaf is in
// exactly one of the P slots, 16 bytes per padded leaf. The tree holds the
// loads itself: a placement on the winner updates it with raiseMin.
type loserTree []slot

// newLoserTree builds the tree of the given distinct machines at their
// loads in a, in place in the one array it returns.
func newLoserTree(a *core.Assignment, machines []int) loserTree {
	m := len(machines)
	if m == 0 {
		return nil
	}
	p := 1 << bits.Len(uint(m-1))
	t := make(loserTree, p)
	leaf := func(l int) slot {
		if l >= m {
			// A padded leaf is above every machine's slot, even one at the
			// largest load: a machine's id, the high half of its lo, is at
			// most math.MaxInt32, the most machines a core.Assignment holds.
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
	// up. Then, top down, the smaller of its children's winners, which
	// still sit in their slots, is replaced by the larger: its loser.
	child := func(c int) slot {
		if c >= p {
			return leaf(c - p)
		}
		return t[c]
	}
	for k := p - 1; k > 0; k-- {
		x, y := child(2*k), child(2*k+1)
		if less(y, x) {
			x = y
		}
		t[k] = x
	}
	t[0] = t[1]
	for k := 1; k < p; k++ {
		x, y := child(2*k), child(2*k+1)
		if less(x, y) {
			x = y
		}
		t[k] = x
	}
	return t
}

// min returns the least-loaded machine, the lowest-indexed among ties, and
// its load.
func (t loserTree) min() (machine int, load core.Cost) {
	return int(t[0].lo >> 32), core.Cost(t[0].hi ^ signBit)
}

// raiseMin sets the load of the least-loaded machine and replays its
// matches along the fixed path from its leaf to the root: the slots on that
// path hold the winners of the sibling subtrees, so each step keeps the
// larger slot and carries the smaller up, with a 128-bit borrow and mask
// selects instead of a branch.
func (t loserTree) raiseMin(load core.Cost) {
	w := slot{uint64(load) ^ signBit, t[0].lo}
	for k := (uint(uint32(w.lo)) + uint(len(t))) >> 1; k > 0; k >>= 1 {
		s := t[k]
		_, b := bits.Sub64(s.lo, w.lo, 0)
		_, b = bits.Sub64(s.hi, w.hi, b)
		mask := -b // all ones when s is the smaller
		dhi, dlo := (s.hi^w.hi)&mask, (s.lo^w.lo)&mask
		t[k] = slot{s.hi ^ dhi, s.lo ^ dlo}
		w = slot{w.hi ^ dhi, w.lo ^ dlo}
	}
	t[0] = w
}
