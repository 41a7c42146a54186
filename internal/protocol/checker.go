package protocol

import (
	"slices"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// PairStep is an engine's pairwise step as the stability checker replays it:
// given machines i < j and their job lists onI and onJ, each sorted ascending
// and not to be mutated, it returns the lists the step would leave on i and
// j, each sorted ascending. s is the checker's scratch; the result may alias
// it. The sequential engine's step is its protocol's BalanceSides; the
// sharded engine's is SplitStep.
type PairStep func(s *pairwise.Scratch, i, j int, onI, onJ []int) (toI, toJ []int)

// SplitStep is the pair step of a sharded-engine session for every protocol:
// merge the two lists and split the union with p.SplitScratch. For the
// MinMove protocols this is the rebuild kernel, not their BalanceSides
// transfer, which is why each engine checks its own step. The split goes
// through p itself, so a wrapper that counts SplitScratch calls also counts
// the pairs a check splits.
func SplitStep(p Protocol) PairStep {
	return func(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
		return splitSides(p, s, i, j, onI, onJ)
	}
}

// Checker proves or refutes that a placement is stable under a pair step: no
// pair of up machines whose step would change their job lists. It scans the
// pairs in the order (0,1), (0,2), …, (0,m−1), (1,2), … and returns the first
// that fails, so its answer is always that of a scan restarting at (0,1).
//
// It does not restart, though. A step reads only (i, j, the two job lists)
// (the Protocol contract), so a pair that one check verified stays verified
// until one of its two machines changes. The checker keeps one "changed
// since the last check" bit per machine, set through Mark, and a frontier:
// the scan index of the last check's first failing pair, or the pair count
// after a check that succeeded. A check skips every pair before the frontier
// whose two machines are both unchanged, splits the others until one fails,
// then stores the new frontier and clears the bits. Pairs with a down
// machine are skipped too; they were never verified, which is why a machine
// that goes down or comes back must be marked.
//
// The skip is only sound if the caller marks every machine whose job list
// changed since the last check. The engines mark the two machines of every
// step or session that moved a job, and the sharded engine also marks every
// machine a fault transition touches. The checker therefore relies on the
// engines' own assumption (see gossip.Engine.Makespan): only their steps
// mutate the placement. A Checker is not safe for concurrent use, except
// that Mark may run concurrently for distinct machines between two checks.
type Checker struct {
	step     PairStep
	scratch  pairwise.Scratch
	changed  []bool
	frontier int

	// order is the list order CheckAssignment builds its lists in, nil for
	// increasing job order; UnstablePair sets it to its protocol's. lists
	// and backing hold those lists, reused from one check to the next.
	order   []uint32
	lists   [][]int
	backing []int
}

// NewChecker returns a checker for m machines that verifies the pair step
// step. Its first check scans every pair.
func NewChecker(m int, step PairStep) *Checker {
	return &Checker{step: step, changed: make([]bool, m)}
}

// Mark records that machine i changed since the last check: its job list, or
// whether it is down.
//
//hetlb:noalloc
func (c *Checker) Mark(i int) { c.changed[i] = true }

// Check returns the first pair (i, j), i < j, in scan order whose step would
// change the placement, or (-1, -1) if the placement is stable. jobs[i] is
// machine i's job list, sorted ascending. Pairs with a machine marked in
// down are skipped; down may be nil.
//
//hetlb:noalloc
func (c *Checker) Check(jobs [][]int, down []bool) (int, int) {
	m := len(jobs)
	fi, fj := -1, -1
	k := 0 // the scan index of pair (i, j)
scan:
	for i := 0; i < m; i++ {
		if down != nil && down[i] {
			k += m - 1 - i
			continue
		}
		for j := i + 1; j < m; j, k = j+1, k+1 {
			if down != nil && down[j] {
				continue
			}
			if k < c.frontier && !c.changed[i] && !c.changed[j] {
				continue
			}
			toI, toJ := c.step(&c.scratch, i, j, jobs[i], jobs[j])
			if !slices.Equal(toI, jobs[i]) || !slices.Equal(toJ, jobs[j]) {
				fi, fj = i, j
				break scan
			}
		}
	}
	c.frontier = k
	clear(c.changed)
	return fi, fj
}

// CheckAssignment is Check on the placement of a with every machine up. The
// job lists come from one counting pass over the assignment, O(n+m)
// (core.Assignment.FillOrderedLists), into buffers the checker keeps, in
// the list order of the protocol UnstablePair checks, and in increasing job
// order on a checker from NewChecker; unassigned jobs are on no list.
func (c *Checker) CheckAssignment(a *core.Assignment) (int, int) {
	if c.lists == nil {
		c.lists = make([][]int, len(c.changed))
		c.backing = make([]int, a.Model().NumJobs())
	}
	a.FillOrderedLists(c.lists, c.backing, c.order)
	return c.Check(c.lists, nil)
}
