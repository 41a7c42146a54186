package shardgossip

import (
	"hetlb/internal/gossip"
	"hetlb/internal/rng"
)

// MatchingSelection is a gossip.Selection that replays the sharded engine's
// epoch schedule on the sequential gossip.Engine: epoch e of seed s draws
// the permutation keyed by rng.DeriveSeed(s, e) and yields its ⌊m/2⌋
// disjoint pairs in order. A gossip.Engine run with this selection and a
// shardgossip.Engine with the same seed execute the exact same sessions in
// the exact same order, which is what the S=1 equivalence tests pin.
//
// It ignores the generator passed to Pair — the schedule is keyed by its own
// seed so it cannot drift if the engine draws for other purposes — and is
// sized to one machine count at construction.
type MatchingSelection struct {
	seed  uint64
	gen   *rng.RNG
	perm  []int
	pos   int
	epoch uint64
}

// NewMatchingSelection builds the selection for m machines.
func NewMatchingSelection(seed uint64, m int) *MatchingSelection {
	return &MatchingSelection{
		seed: seed,
		gen:  rng.New(0),
		perm: make([]int, m),
		pos:  m / 2, // force a fresh epoch on the first Pair call
	}
}

// Name implements gossip.Selection.
func (*MatchingSelection) Name() string { return "epoch-matching" }

// Pair implements gossip.Selection.
func (s *MatchingSelection) Pair(_ *rng.RNG, m int) (int, int) {
	if m != len(s.perm) {
		panic("shardgossip: MatchingSelection sized for a different machine count")
	}
	if s.pos >= m/2 {
		drawMatching(s.gen, s.perm, s.seed, s.epoch)
		s.epoch++
		s.pos = 0
	}
	i, j := s.perm[2*s.pos], s.perm[2*s.pos+1]
	s.pos++
	return i, j
}

var _ gossip.Selection = (*MatchingSelection)(nil)

// drawMatching fills perm with the matching of one epoch of seed: gen is
// re-keyed with rng.DeriveSeed(seed, epoch) and draws one permutation, and
// pair t is perm[2t] with perm[2t+1] (an odd machine count leaves machine
// perm[m-1] idle). It is the one draw of the schedule, shared by the sharded
// engine and MatchingSelection, so the two cannot drift apart.
//
//hetlb:noalloc
func drawMatching(gen *rng.RNG, perm []int, seed, epoch uint64) {
	gen.Reseed(rng.DeriveSeed(seed, epoch))
	gen.PermInto(perm)
}
